// Tests for the public API facade (heterosvd.hpp): svd(), svd_batch(),
// derive_v(), wide-matrix handling, option plumbing, and the per-shape
// DSE plan memo.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/ops.hpp"
#include "linalg/reference_svd.hpp"
#include "obs/obs.hpp"

namespace hsvd {
namespace {

linalg::MatrixF random_matrix(std::size_t rows, std::size_t cols,
                              std::uint64_t seed) {
  Rng rng(seed);
  return linalg::random_gaussian(rows, cols, rng).cast<float>();
}

TEST(Facade, SvdMatchesReference) {
  auto a = random_matrix(24, 16, 600);
  Svd r = svd(a);
  auto ref = linalg::reference_svd(a.cast<double>());
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
  EXPECT_LT(linalg::orthogonality_error(r.u.cast<double>()), 1e-4);
  EXPECT_LT(linalg::orthogonality_error(r.v.cast<double>()), 1e-3);
  EXPECT_LT(linalg::reconstruction_error(a.cast<double>(), r.u.cast<double>(),
                                         sigma, r.v.cast<double>()),
            1e-5);
  EXPECT_GT(r.accelerator_seconds, 0.0);
  EXPECT_LT(r.convergence_rate, 1e-6);
}

TEST(Facade, WideMatrixTransposesAndSwapsFactors) {
  auto a = random_matrix(12, 20, 601);  // wide
  Svd r = svd(a);
  auto ref = linalg::reference_svd(linalg::transpose(a.cast<double>()));
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
  // U spans the 12-dim row space, V the 20-dim column space.
  EXPECT_EQ(r.u.rows(), 12u);
  EXPECT_EQ(r.v.rows(), 20u);
  EXPECT_LT(linalg::reconstruction_error(a.cast<double>(), r.u.cast<double>(),
                                         sigma, r.v.cast<double>()),
            1e-5);
}

TEST(Facade, WideMatrixWithoutV) {
  auto a = random_matrix(8, 14, 602);
  SvdOptions opts;
  opts.want_v = false;
  Svd r = svd(a, opts);
  EXPECT_TRUE(r.v.empty());
  EXPECT_EQ(r.u.rows(), 8u);
}

TEST(Facade, ExplicitConfigOverridesDse) {
  auto a = random_matrix(16, 8, 603);
  SvdOptions opts;
  accel::HeteroSvdConfig cfg;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 12;
  opts.config = cfg;
  Svd r = svd(a, opts);
  auto ref = linalg::reference_svd(a.cast<double>());
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
}

TEST(Facade, BatchSharedShapeEnforced) {
  std::vector<linalg::MatrixF> batch = {random_matrix(8, 4, 604),
                                        random_matrix(8, 6, 605)};
  EXPECT_THROW(svd_batch(batch), std::invalid_argument);
  EXPECT_THROW(svd_batch({}), std::invalid_argument);
}

TEST(Facade, BatchDecomposesEveryTask) {
  std::vector<linalg::MatrixF> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(random_matrix(12, 8, 700 + i));
  BatchSvd out = svd_batch(batch);
  ASSERT_EQ(out.results.size(), 4u);
  EXPECT_GT(out.throughput_tasks_per_s, 0.0);
  EXPECT_GT(out.config.p_task, 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto ref = linalg::reference_svd(batch[i].cast<double>());
    std::vector<double> sigma(out.results[i].sigma.begin(),
                              out.results[i].sigma.end());
    EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4) << i;
  }
}

TEST(Facade, DeriveVRecoversRightFactor) {
  Rng rng(606);
  auto ad = linalg::matrix_with_spectrum(10, 6,
                                         linalg::geometric_spectrum(6, 10.0),
                                         rng);
  auto ref = linalg::reference_svd(ad);
  linalg::MatrixF u = ref.u.cast<float>();
  std::vector<float> sigma(ref.sigma.begin(), ref.sigma.end());
  linalg::MatrixF v = derive_v(ad.cast<float>(), u, sigma);
  EXPECT_LT(linalg::orthogonality_error(v.cast<double>()), 1e-3);
  // Matches the reference V up to column signs.
  for (std::size_t t = 0; t < 6; ++t) {
    double dot = 0;
    for (std::size_t j = 0; j < 6; ++j)
      dot += static_cast<double>(v(j, t)) * ref.v(j, t);
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-4) << "column " << t;
  }
}

TEST(Facade, CleanRunsReportOkRobustnessFields) {
  std::vector<linalg::MatrixF> batch = {random_matrix(12, 8, 650),
                                        random_matrix(12, 8, 651)};
  BatchSvd out = svd_batch(batch);
  EXPECT_EQ(out.failed_tasks, 0);
  EXPECT_EQ(out.recovery_runs, 0);
  for (const auto& r : out.results) {
    EXPECT_EQ(r.status, SvdStatus::kOk);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.message.empty());
    EXPECT_EQ(r.recovery_attempts, 0);
  }
}

TEST(Facade, DeriveVLeavesZeroSigmaColumnsZero) {
  auto a = random_matrix(6, 4, 607);
  linalg::MatrixF u(6, 2);
  u(0, 0) = 1;
  u(1, 1) = 1;
  std::vector<float> sigma = {2.0f, 0.0f};
  auto v = derive_v(a, u, sigma);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(v(j, 1), 0.0f);
}

// ---- per-shape plan memo ---------------------------------------------

std::uint64_t counter(const obs::ObsContext& obs, const std::string& name) {
  const auto snap = obs.metrics().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(FacadePlanMemo, PlannedConfigMatchesAFreshExplorer) {
  // The facade's memoized plan must be the very design point a fresh,
  // memo-less explorer picks -- for both objectives and for a reduced
  // device, on the first (planning) and the second (memo) call alike.
  versal::DeviceResources reduced;
  reduced.aie_cols = 24;
  reduced.total_aie = 8 * 24;
  reduced.total_uram = 120;
  reduced.total_plio = 60;
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {16, 16}, {40, 24}, {64, 64}, {96, 48}, {128, 128}, {256, 256}};
  for (const auto& device : {versal::vck190(), reduced}) {
    for (const auto& [rows, cols] : shapes) {
      for (const int batch : {1, 16}) {
        SvdOptions options;
        options.device = device;
        dse::DseRequest req;
        req.rows = rows;
        req.cols = cols;
        req.batch = batch;
        req.objective = batch > 1 ? dse::Objective::kThroughput
                                  : dse::Objective::kLatency;
        req.device = device;
        const dse::DesignPoint fresh = dse::DesignSpaceExplorer{}.optimize(req);
        for (int call = 0; call < 2; ++call) {
          const accel::HeteroSvdConfig cfg =
              planned_config(rows, cols, batch, options);
          const std::string where =
              cat(rows, "x", cols, " batch ", batch, " aie_cols ",
                  device.aie_cols, " call ", call);
          EXPECT_EQ(cfg.p_eng, fresh.p_eng) << where;
          EXPECT_EQ(cfg.p_task, fresh.p_task) << where;
          EXPECT_EQ(cfg.pl_frequency_hz, fresh.frequency_hz) << where;
          EXPECT_EQ(cfg.device.aie_cols, device.aie_cols) << where;
        }
      }
    }
  }
}

TEST(FacadePlanMemo, SecondSvdOfAShapeIsPlannedFromTheMemo) {
  const auto a = random_matrix(36, 20, 1501);
  SvdOptions first;
  obs::ObsContext first_obs;
  first.observer = &first_obs;
  const Svd r1 = svd(a, first);
  EXPECT_GT(counter(first_obs, "dse.placement_calls"), 0u);
  EXPECT_EQ(counter(first_obs, "dse.enumerate.memo_hit"), 0u);

  SvdOptions second;
  obs::ObsContext second_obs;
  second.observer = &second_obs;
  const Svd r2 = svd(a, second);
  EXPECT_EQ(counter(second_obs, "dse.enumerate.memo_hit"), 1u);
  EXPECT_EQ(counter(second_obs, "dse.placement_calls"), 0u);
  // Same plan, same bits.
  EXPECT_EQ(r2.sigma, r1.sigma);
  EXPECT_EQ(r2.accelerator_seconds, r1.accelerator_seconds);
}

TEST(FacadePlanMemo, ChangedDeviceMissesTheMemo) {
  SvdOptions options;
  (void)planned_config(44, 28, 1, options);
  // Every budget the DSE reads is part of the memo key, the URAM/BRAM
  // block sizes included: a changed device is planned afresh.
  const auto plans_afresh = [](const SvdOptions& changed) {
    SvdOptions observed = changed;
    obs::ObsContext obs;
    observed.observer = &obs;
    (void)planned_config(44, 28, 1, observed);
    return counter(obs, "dse.enumerate.memo_hit") == 0 &&
           counter(obs, "dse.placement_calls") > 0;
  };
  SvdOptions fewer_urams = options;
  fewer_urams.device.total_uram = 97;
  EXPECT_TRUE(plans_afresh(fewer_urams));
  SvdOptions smaller_urams = options;
  smaller_urams.device.uram_bytes /= 2;
  EXPECT_TRUE(plans_afresh(smaller_urams));
  SvdOptions smaller_brams = options;
  smaller_brams.device.bram_bytes /= 2;
  EXPECT_TRUE(plans_afresh(smaller_brams));
  // The unchanged device still hits.
  EXPECT_FALSE(plans_afresh(options));
}

}  // namespace
}  // namespace hsvd
