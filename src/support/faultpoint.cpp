#include "support/faultpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect::fault {

namespace {

[[noreturn]] void bad_spec(const std::string& token, const std::string& why) {
  throw ContractViolation("fault spec: bad entry '" + token + "': " + why +
                          " (grammar: " + Registry::grammar() + ")");
}

bool valid_point_name(std::string_view s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool wildcard_tail = c == '*' && i + 1 == s.size();
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-' || wildcard_tail)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

double fire_draw(std::uint64_t seed, std::string_view point,
                 std::uint64_t hit) {
  const std::uint64_t bits = mix64(seed ^ mix64(fnv1a64(point) + hit));
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

const char* Registry::grammar() {
  return "seed=N,point[:p=F][:nth=N][:count=K][:ms=M],... "
         "(point may end in '*' for a prefix match)";
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

void Registry::configure(const std::string& spec) {
  std::lock_guard<std::mutex> lk(mu_);
  rules_.clear();
  counters_.clear();
  seed_ = 0;
  fired_total_.store(0, std::memory_order_relaxed);

  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    const std::vector<std::string> parts = split(entry, ':');
    const std::string& head = parts.front();

    const auto parse_u64 = [&](const std::string& v) -> std::uint64_t {
      std::size_t pos = 0;
      std::uint64_t out = 0;
      try {
        out = std::stoull(v, &pos);
      } catch (const std::exception&) {
        bad_spec(entry, "'" + v + "' is not an integer");
      }
      if (pos != v.size()) bad_spec(entry, "'" + v + "' is not an integer");
      return out;
    };

    if (head.rfind("seed=", 0) == 0) {
      if (parts.size() != 1) bad_spec(entry, "seed takes no modifiers");
      seed_ = parse_u64(head.substr(5));
      continue;
    }

    Rule rule;
    rule.point = head;
    if (!valid_point_name(rule.point)) {
      bad_spec(entry, "'" + rule.point + "' is not a fault-point name");
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::string& mod = parts[i];
      const std::size_t eq = mod.find('=');
      if (eq == std::string::npos) bad_spec(entry, "modifier needs key=value");
      const std::string key = mod.substr(0, eq);
      const std::string val = mod.substr(eq + 1);
      if (key == "p") {
        std::size_t pos = 0;
        try {
          rule.probability = std::stod(val, &pos);
        } catch (const std::exception&) {
          pos = std::string::npos;
        }
        if (pos != val.size() || rule.probability < 0.0 ||
            rule.probability > 1.0) {
          bad_spec(entry, "p must be a number in [0, 1]");
        }
      } else if (key == "nth") {
        rule.nth = parse_u64(val);
      } else if (key == "count") {
        rule.max_fires = parse_u64(val);
      } else if (key == "ms") {
        const std::uint64_t ms = parse_u64(val);
        if (ms > 600000) bad_spec(entry, "ms above the 600000 sanity cap");
        rule.stall_ms = static_cast<std::uint32_t>(ms);
      } else {
        bad_spec(entry, "unknown modifier '" + key + "'");
      }
    }
    // Exact rules take precedence over wildcards regardless of spec
    // order: sort wildcards to the back (match scans front to back).
    rules_.push_back(std::move(rule));
  }
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const Rule& a, const Rule& b) {
                     return (a.point.back() != '*') > (b.point.back() != '*');
                   });
  armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

void Registry::disarm() {
  std::lock_guard<std::mutex> lk(mu_);
  rules_.clear();
  counters_.clear();
  seed_ = 0;
  fired_total_.store(0, std::memory_order_relaxed);
  armed_.store(false, std::memory_order_relaxed);
}

const Rule* Registry::match_locked(std::string_view point) const {
  for (const Rule& r : rules_) {
    if (r.point.back() == '*') {
      const std::string_view prefix(r.point.data(), r.point.size() - 1);
      if (point.substr(0, prefix.size()) == prefix) return &r;
    } else if (point == r.point) {
      return &r;
    }
  }
  return nullptr;
}

bool Registry::should_fire(std::string_view point, std::uint32_t* stall_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  const Rule* rule = match_locked(point);
  if (rule == nullptr) return false;

  auto it = std::find_if(
      counters_.begin(), counters_.end(),
      [&](const auto& kv) { return kv.first == point; });
  if (it == counters_.end()) {
    counters_.emplace_back(std::string(point), Counters{});
    it = std::prev(counters_.end());
  }
  Counters& c = it->second;
  ++c.hits;

  if (rule->max_fires != 0 && c.fires >= rule->max_fires) return false;
  if (rule->nth != 0 && c.hits % rule->nth != 0) return false;
  if (rule->probability < 1.0 &&
      fire_draw(seed_, point, c.hits) >= rule->probability) {
    return false;
  }

  ++c.fires;
  fired_total_.fetch_add(1, std::memory_order_relaxed);
  if (stall_ms != nullptr) *stall_ms = rule->stall_ms;
  return true;
}

std::uint64_t Registry::fires(std::string_view point) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) {
    if (name == point) return c.fires;
  }
  return 0;
}

std::uint64_t Registry::hits(std::string_view point) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) {
    if (name == point) return c.hits;
  }
  return 0;
}

std::vector<PointStats> Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<PointStats> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back(PointStats{name, c.hits, c.fires});
  }
  return out;
}

}  // namespace mpidetect::fault
