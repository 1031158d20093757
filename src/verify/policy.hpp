// Verified-compute policy and provenance types (DESIGN.md section 15).
//
// The accelerator's fault detection lives at dataflow boundaries
// (stamp checks, non-finite guards, the watchdog): a *silent* error -- an
// undetected SEU, a wrong-but-finite kernel result, a buggy backend --
// flows straight past it. The verify layer closes that gap with result
// attestation: tiered mathematical checks on the returned factors,
// selected per request by a VerifyPolicy, and an escalation ladder
// (re-run -> re-route -> host double-precision reference) when a check
// fails. This header holds the policy and the provenance types; the
// checks themselves live in verify/verifier.hpp and the ladder in
// verify/escalate.hpp. It is included by heterosvd.hpp, so it must not
// depend on the facade types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hsvd::verify {

enum class VerifyMode {
  kOff,     // never check: the classic, bit-identical default
  kSample,  // check a seeded deterministic sample of results
  kAlways,  // check every result
};

const char* to_string(VerifyMode mode);

// When (not how) results are verified. The default kOff path adds no
// work, no state, and no randomness: results are bit-identical to a
// build without the verify layer. kSample draws from a seeded hash of
// the request identity (the input matrix digest), so the same request
// is either always or never checked for a given seed -- replays agree.
struct VerifyPolicy {
  VerifyMode mode = VerifyMode::kOff;
  // kSample: probability in (0, 1]; ignored otherwise.
  double sample_rate = 0.0;
  // kSample: seed of the selection stream.
  std::uint64_t seed = 0;

  bool enabled() const { return mode != VerifyMode::kOff; }
  // Whether the result identified by `ident` is selected for
  // verification under this policy. Pure: same (policy, ident) always
  // answers the same.
  bool selects(std::uint64_t ident) const;
  void validate() const;
};

// Parses "off", "always", or "sample:<p>" (optionally "sample:<p>:<seed>").
// Throws hsvd::InputError on anything else.
VerifyPolicy parse_verify_policy(const std::string& spec);
std::string to_string(const VerifyPolicy& policy);

// The tiers a ResultVerifier runs, cheapest first; a failed tier stops
// the pass (deeper tiers are skipped -- their scores stay unset).
enum class VerifyTier {
  kCheap,   // finite factors, non-negative descending sigma
  kMedium,  // ||U^T U - I||_F and ||V^T V - I||_F vs shape-scaled bounds
  kFull,    // relative residual ||A - U Sigma V^T||_F / ||A||_F
};

const char* to_string(VerifyTier tier);

// Which rung of the escalation ladder produced the final answer.
enum class VerifyRung {
  kNone,       // verification did not run (policy off / not sampled)
  kPrimary,    // the original execution verified clean
  kRerun,      // re-run on the same backend
  kReroute,    // re-routed to an alternate backend via the Router
  kReference,  // host double-precision reference decomposition
};

const char* to_string(VerifyRung rung);

// Scores of one verifier pass over one result. A score of -1 means the
// tier that computes it never ran (an earlier tier failed first).
struct VerifyOutcome {
  bool passed = false;
  // First tier that failed; meaningful only when !passed.
  VerifyTier failed_tier = VerifyTier::kCheap;
  double u_orth = -1.0;     // ||U^T U - I||_F over significant columns
  double v_orth = -1.0;     // ||V^T V - I||_F (-1 when V absent too)
  double residual = -1.0;   // ||A - U Sigma V^T||_F / ||A||_F
  double orth_bound = 0.0;
  double v_orth_bound = 0.0;
  double residual_bound = 0.0;
  std::string note;  // diagnostic for the failing check
};

// One executed rung: where the candidate result came from and what the
// verifier scored it.
struct RungAttempt {
  VerifyRung rung = VerifyRung::kPrimary;
  // Backend that produced the candidate ("" = classic AIE path,
  // "reference" = the host double-precision rung).
  std::string backend;
  VerifyOutcome outcome;
};

// Full attestation provenance of one Svd result.
struct VerifyReport {
  // Policy selected this result for verification.
  bool checked = false;
  // The final answer passed its checks.
  bool verified = false;
  // Rung that produced the final answer (kNone when !checked).
  VerifyRung rung = VerifyRung::kNone;
  // Every rung executed, in ladder order, with its scores.
  std::vector<RungAttempt> attempts;

  // Convenience accessors over the final attempt (CLI columns).
  double final_residual() const {
    return attempts.empty() ? -1.0 : attempts.back().outcome.residual;
  }
  double final_u_orth() const {
    return attempts.empty() ? -1.0 : attempts.back().outcome.u_orth;
  }
  // True when the ladder had to go past the primary execution.
  bool escalated() const {
    return checked && rung != VerifyRung::kNone && rung != VerifyRung::kPrimary;
  }
};

}  // namespace hsvd::verify
