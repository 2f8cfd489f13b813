#include "io/serialize.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

namespace eca::io {
namespace {

void set_precision(std::ostream& os) {
  os << std::setprecision(17);
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool expect_magic(std::istream& is, const std::string& magic,
                  std::string* error) {
  std::string word, version;
  if (!(is >> word >> version) || word != magic || version != "v1") {
    return fail(error, "bad header: expected '" + magic + " v1'");
  }
  return true;
}

template <typename T>
bool read_value(std::istream& is, T& out, std::string* error,
                const char* what) {
  if (!(is >> out)) {
    return fail(error, std::string("failed to read ") + what);
  }
  return true;
}

}  // namespace

void write_trace(std::ostream& os, const mobility::MobilityTrace& trace) {
  set_precision(os);
  // The v1 format interleaves an attachment row and a position row per
  // slot; position-free traces (retain_positions=false) write station
  // placeholders of 0,0 — they are a scoring-only representation and lose
  // nothing the solvers consume.
  os << "eca-trace v1\n" << trace.num_slots << ' ' << trace.num_users << '\n';
  for (std::size_t t = 0; t < trace.num_slots; ++t) {
    for (std::size_t j = 0; j < trace.num_users; ++j) {
      os << trace.attachment_at(t, j)
         << (j + 1 < trace.num_users ? ' ' : '\n');
    }
    for (std::size_t j = 0; j < trace.num_users; ++j) {
      const geo::GeoPoint p =
          trace.has_positions() ? trace.position_at(t, j) : geo::GeoPoint{};
      os << p.latitude_deg << ',' << p.longitude_deg
         << (j + 1 < trace.num_users ? ' ' : '\n');
    }
    if (trace.num_users == 0) os << '\n' << '\n';
  }
}

std::optional<mobility::MobilityTrace> read_trace(std::istream& is,
                                                  std::string* error) {
  if (!expect_magic(is, "eca-trace", error)) return std::nullopt;
  mobility::MobilityTrace trace;
  if (!read_value(is, trace.num_slots, error, "slot count") ||
      !read_value(is, trace.num_users, error, "user count")) {
    return std::nullopt;
  }
  if (trace.num_slots > 1000000 || trace.num_users > 1000000) {
    fail(error, "implausible trace dimensions");
    return std::nullopt;
  }
  trace.attachment.assign(trace.num_slots * trace.num_users, 0);
  trace.position.assign(trace.num_slots * trace.num_users, geo::GeoPoint{});
  for (std::size_t t = 0; t < trace.num_slots; ++t) {
    for (std::size_t j = 0; j < trace.num_users; ++j) {
      if (!read_value(is, trace.attachment_at(t, j), error, "attachment")) {
        return std::nullopt;
      }
    }
    for (std::size_t j = 0; j < trace.num_users; ++j) {
      std::string token;
      if (!(is >> token)) {
        fail(error, "failed to read position");
        return std::nullopt;
      }
      const std::size_t comma = token.find(',');
      if (comma == std::string::npos) {
        fail(error, "position must be lat,lon");
        return std::nullopt;
      }
      try {
        trace.position_at(t, j).latitude_deg =
            std::stod(token.substr(0, comma));
        trace.position_at(t, j).longitude_deg =
            std::stod(token.substr(comma + 1));
      } catch (const std::exception&) {
        fail(error, "unparsable position token '" + token + "'");
        return std::nullopt;
      }
    }
  }
  return trace;
}

void write_instance(std::ostream& os, const model::Instance& instance) {
  set_precision(os);
  os << "eca-instance v1\n"
     << instance.num_clouds << ' ' << instance.num_users << ' '
     << instance.num_slots << '\n';
  for (const auto& cloud : instance.clouds) {
    os << cloud.capacity << ' ' << cloud.reconfiguration_price << ' '
       << cloud.migration_out_price << ' ' << cloud.migration_in_price
       << '\n';
  }
  for (const auto& row : instance.inter_cloud_delay) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      os << row[k] << (k + 1 < row.size() ? ' ' : '\n');
    }
  }
  for (std::size_t j = 0; j < instance.num_users; ++j) {
    os << instance.demand[j] << (j + 1 < instance.num_users ? ' ' : '\n');
  }
  os << instance.weights.static_weight << ' '
     << instance.weights.dynamic_weight << '\n';
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    for (std::size_t i = 0; i < instance.num_clouds; ++i) {
      os << instance.operation_price[t][i]
         << (i + 1 < instance.num_clouds ? ' ' : '\n');
    }
    for (std::size_t j = 0; j < instance.num_users; ++j) {
      os << instance.attachment[t][j]
         << (j + 1 < instance.num_users ? ' ' : '\n');
    }
    for (std::size_t j = 0; j < instance.num_users; ++j) {
      os << instance.access_delay[t][j]
         << (j + 1 < instance.num_users ? ' ' : '\n');
    }
  }
}

std::optional<model::Instance> read_instance(std::istream& is,
                                             std::string* error) {
  if (!expect_magic(is, "eca-instance", error)) return std::nullopt;
  model::Instance instance;
  if (!read_value(is, instance.num_clouds, error, "cloud count") ||
      !read_value(is, instance.num_users, error, "user count") ||
      !read_value(is, instance.num_slots, error, "slot count")) {
    return std::nullopt;
  }
  if (instance.num_clouds > 100000 || instance.num_users > 1000000 ||
      instance.num_slots > 1000000) {
    fail(error, "implausible instance dimensions");
    return std::nullopt;
  }
  instance.clouds.resize(instance.num_clouds);
  for (auto& cloud : instance.clouds) {
    if (!read_value(is, cloud.capacity, error, "capacity") ||
        !read_value(is, cloud.reconfiguration_price, error, "recon price") ||
        !read_value(is, cloud.migration_out_price, error, "mig out") ||
        !read_value(is, cloud.migration_in_price, error, "mig in")) {
      return std::nullopt;
    }
  }
  // Every per-row array is allocated just before its row is read, so a
  // header that promises more data than the stream holds fails at the
  // first missing row instead of allocating the whole instance up front.
  for (std::size_t i = 0; i < instance.num_clouds; ++i) {
    for (auto& v : instance.inter_cloud_delay.emplace_back(
             instance.num_clouds, 0.0)) {
      if (!read_value(is, v, error, "delay")) return std::nullopt;
    }
  }
  instance.demand.assign(instance.num_users, 0.0);
  for (auto& v : instance.demand) {
    if (!read_value(is, v, error, "demand")) return std::nullopt;
  }
  if (!read_value(is, instance.weights.static_weight, error,
                  "static weight") ||
      !read_value(is, instance.weights.dynamic_weight, error,
                  "dynamic weight")) {
    return std::nullopt;
  }
  for (std::size_t t = 0; t < instance.num_slots; ++t) {
    for (auto& v : instance.operation_price.emplace_back(
             instance.num_clouds, 0.0)) {
      if (!read_value(is, v, error, "operation price")) return std::nullopt;
    }
    for (auto& v : instance.attachment.emplace_back(instance.num_users, 0)) {
      if (!read_value(is, v, error, "attachment")) return std::nullopt;
    }
    for (auto& v : instance.access_delay.emplace_back(instance.num_users,
                                                      0.0)) {
      if (!read_value(is, v, error, "access delay")) return std::nullopt;
    }
  }
  const std::string instance_error = instance.validate();
  if (!instance_error.empty()) {
    fail(error, "instance invalid after parse: " + instance_error);
    return std::nullopt;
  }
  return instance;
}

bool save_instance(const std::string& path, const model::Instance& instance) {
  std::ofstream os(path);
  if (!os) return false;
  write_instance(os, instance);
  return static_cast<bool>(os);
}

std::optional<model::Instance> load_instance(const std::string& path,
                                             std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return read_instance(is, error);
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; registry names use dots as
// separators (e.g. "solve.newton.iterations").
std::string prom_name(const std::string& name) {
  std::string out = "eca_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void write_prom_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void write_metrics_snapshot(std::ostream& os,
                            const obs::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " counter\n" << p << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.double_counters) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " counter\n" << p << ' ';
    write_prom_double(os, value);
    os << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << ' ';
    write_prom_double(os, value);
    os << '\n';
  }
  for (const auto& hist : snapshot.histograms) {
    const std::string p = prom_name(hist.name);
    os << "# TYPE " << p << " histogram\n";
    // Cumulative le-buckets; bucket b covers values < 2^b, so its upper
    // bound is histogram_bucket_floor(b + 1) - 1 inclusive == le 2^b - 1...
    // Prometheus convention is `le` inclusive, so emit the last value each
    // bucket can hold. Empty trailing buckets are skipped; +Inf closes.
    std::uint64_t cumulative = 0;
    std::size_t last_nonzero = 0;
    for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      if (hist.buckets[b] != 0) last_nonzero = b;
    }
    for (std::size_t b = 0; b <= last_nonzero; ++b) {
      cumulative += hist.buckets[b];
      // Largest value bucket b holds: 0 for bucket 0, else 2^b - 1.
      const std::uint64_t le =
          b == 0 ? 0 : (obs::histogram_bucket_floor(b + 1) - 1);
      os << p << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    os << p << "_bucket{le=\"+Inf\"} " << hist.count << '\n'
       << p << "_sum " << hist.sum << '\n'
       << p << "_count " << hist.count << '\n';
  }
}

bool save_metrics_snapshot(const std::string& path,
                           const obs::MetricsSnapshot& snapshot) {
  std::ofstream os(path);
  if (!os) return false;
  write_metrics_snapshot(os, snapshot);
  return static_cast<bool>(os);
}

std::string metrics_out_path_from_env() {
  const char* path = std::getenv("ECA_METRICS_OUT");
  if (path == nullptr) return "";
  if (path[0] == '\0') {
    std::fprintf(stderr,
                 "error: ECA_METRICS_OUT is set but empty (must name the "
                 "Prometheus text output path; unset it to disable)\n");
    std::exit(2);
  }
  {
    std::ofstream probe(path);
    if (!probe) {
      std::fprintf(stderr, "error: ECA_METRICS_OUT='%s' is not writable\n",
                   path);
      std::exit(2);
    }
  }
  return path;
}

}  // namespace eca::io
