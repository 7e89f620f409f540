#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>

#include "obs/json.hpp"
#include "obs/ledger.hpp"

namespace perfbench {
namespace {

using scflow::obs::json_escape;
using scflow::obs::json_number;

std::string quoted(const std::string& s) { return "\"" + json_escape(s) + "\""; }

template <class Map, class Render>
std::string object(const Map& m, Render render) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += quoted(k) + ": " + render(v);
  }
  return out + "}";
}

}  // namespace

Tracer::Tracer() : epoch_ns_(now_ns() - writer_.now_ns()) {}

void Tracer::begin_run(const std::string& workload) {
  category_ = workload + "#" + std::to_string(++runs_[workload]);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.active_) return;
  tracer_ = &tracer;
  span_.id = tracer.spans_.reserve_id();
  span_.parent_id = tracer.open_.empty() ? 0 : tracer.open_.back();
  span_.name = name;
  span_.category = tracer.category_;
  span_.start_ns = tracer.writer_.now_ns();
  tracer.open_.push_back(span_.id);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->writer_.now_ns();
  tracer_->open_.pop_back();
  tracer_->spans_.add(std::move(span_));
}

std::uint64_t Tracer::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                          std::uint64_t parent) {
  if (!active_) return 0;
  scflow::obs::Span s;
  s.id = spans_.reserve_id();
  s.parent_id = parent != 0 ? parent : (open_.empty() ? 0 : open_.back());
  s.name = name;
  s.category = category_;
  s.start_ns = start_ns > epoch_ns_ ? start_ns - epoch_ns_ : 0;
  s.end_ns = end_ns > epoch_ns_ ? end_ns - epoch_ns_ : 0;
  const std::uint64_t id = s.id;
  spans_.add(std::move(s));
  return id;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const auto& spans = spans_.spans();
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].category != category_) continue;
    Totals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) {
  spans_.export_to(writer_);
  return writer_.write_file(path);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Report::dist(const std::string& name, const DistSummary& s, const std::string& unit) {
  dists_[name] = "{\"n\": " + std::to_string(s.n) + ", \"p50\": " + json_number(s.p50) +
                 ", \"tail_pct\": " + json_number(s.tail_pct) +
                 ", \"tail\": " + json_number(s.tail) + ", \"unit\": " + quoted(unit) + "}";
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::print(std::FILE* out) const {
  const auto raw = [](const std::string& v) { return v; };
  const auto num = [](std::uint64_t v) { return std::to_string(v); };
  const auto hex = [](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"0x%016llx\"", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  std::fprintf(out, "{\"info\": %s}\n", object(info_, raw).c_str());
  std::fprintf(out, "{\"counts\": %s}\n", object(counts_, num).c_str());
  std::fprintf(out, "{\"hashes\": %s}\n", object(hashes_, hex).c_str());
  std::fprintf(out, "{\"distributions\": %s}\n", object(dists_, raw).c_str());
  const auto metric = [](const std::pair<double, std::string>& m) {
    return "{\"value\": " + json_number(m.first) + ", \"unit\": " + quoted(m.second) + "}";
  };
  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
               failed_ == 0 ? "true" : "false", static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_), object(metrics_, metric).c_str());
  std::fflush(out);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports kilobytes
}

std::uint64_t hash_samples(const std::vector<scflow::dsp::StereoSample>& v) {
  scflow::obs::Fnv1a h;
  for (const auto& s : v) h.update_u64(sample_word(s));
  return h.digest();
}

void report_overhead(Report& rep, const Tracer& tracer, const char* workload,
                     const std::vector<double>& untraced_s, const std::vector<double>& traced_s) {
  const double untraced = median(untraced_s);
  const double traced = median(traced_s);
  double self_sum_ns = 0.0;
  for (const auto& [name, t] : tracer.totals()) self_sum_ns += static_cast<double>(t.self_ns);
  const double self_per_unit =
      traced_s.empty() ? 0.0 : 1e-9 * self_sum_ns / static_cast<double>(traced_s.size());
  rep.metric("trace.overhead_pct", 100.0 * (ratio(traced, untraced) - 1.0), "%");
  rep.info(std::string("trace.") + workload,
           "{\"untraced_unit_s\": " + json_number(untraced) +
               ", \"traced_unit_s\": " + json_number(traced) +
               ", \"self_sum_per_traced_unit_s\": " + json_number(self_per_unit) + "}");
}

}  // namespace perfbench
