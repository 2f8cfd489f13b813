#include "io/serialize.h"

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

}  // namespace eca::io
