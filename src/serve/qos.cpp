#include "serve/qos.hpp"

#include <cmath>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/format.hpp"

namespace hsvd::serve {

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kLatency: return "latency";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "unknown";
}

void TenantConfig::validate() const {
  HSVD_REQUIRE(!name.empty(), "tenant name must be non-empty");
  HSVD_REQUIRE(std::isfinite(weight) && weight > 0.0,
               "tenant weight must be positive and finite");
  HSVD_REQUIRE(std::isfinite(quota_rate) && quota_rate > 0.0,
               "tenant quota_rate must be positive and finite");
  HSVD_REQUIRE(std::isfinite(quota_burst) && quota_burst >= 1.0,
               "tenant quota_burst must be at least 1");
}

void QosOptions::validate() const {
  for (const TenantConfig& tenant : tenants) {
    tenant.validate();
    std::size_t hits = 0;
    for (const TenantConfig& other : tenants) {
      if (other.name == tenant.name) ++hits;
    }
    HSVD_REQUIRE(hits == 1, "tenant names must be unique");
  }
  HSVD_REQUIRE(coalesce_max_batch >= 1,
               "qos coalesce_max_batch must be at least 1");
  if (coalesce_max_batch > 1) {
    HSVD_REQUIRE(
        std::isfinite(coalesce_window_seconds) && coalesce_window_seconds > 0.0,
        "qos coalesce_window_seconds must be positive and finite");
  }
  if (cache_enabled) {
    HSVD_REQUIRE(cache_capacity >= 1,
                 "qos cache_capacity must be at least 1 when the cache is "
                 "enabled");
  }
}

std::size_t QosOptions::tenant_index(const std::string& name) const {
  const std::string& key = name.empty() ? std::string(kDefaultTenant) : name;
  if (tenants.empty()) return key == kDefaultTenant ? 0 : npos;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name == key) return i;
  }
  return npos;
}

TenantConfig parse_tenant_spec(const std::string& spec) {
  TenantConfig config;
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  HSVD_REQUIRE(parts.size() <= 4,
               "tenant spec is name[:weight[:rate[:burst]]]");
  config.name = parts[0];
  const auto parse_number = [&](const std::string& text, const char* what) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
      throw InputError(cat("tenant spec '", spec, "': bad ", what, " '", text,
                           "'"));
    }
    return value;
  };
  if (parts.size() > 1 && !parts[1].empty()) {
    config.weight = parse_number(parts[1], "weight");
  }
  if (parts.size() > 2 && !parts[2].empty()) {
    config.quota_rate = parse_number(parts[2], "quota rate");
  }
  if (parts.size() > 3 && !parts[3].empty()) {
    config.quota_burst = parse_number(parts[3], "quota burst");
  }
  config.validate();
  return config;
}

Priority parse_priority(const std::string& text) {
  if (text == "latency") return Priority::kLatency;
  if (text == "normal") return Priority::kNormal;
  if (text == "batch") return Priority::kBatch;
  throw InputError(cat("unknown priority '", text,
                       "' (expected latency, normal, or batch)"));
}

}  // namespace hsvd::serve
