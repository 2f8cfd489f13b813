// Plain-text (de)serialization for mobility traces and full problem
// instances.
//
// The formats are deliberately simple line-oriented text so that real
// datasets — e.g. the CRAWDAD Roma taxi traces the paper used, which we
// substitute with a synthetic emulation — can be converted with a few lines
// of scripting and fed to every algorithm in this library unchanged.
//
//   eca-trace v1
//   <slots> <users>
//   per slot: one line of <users> attachment indices,
//             one line of <users> "lat,lon" positions
//
//   eca-instance v1
//   <clouds> <users> <slots>
//   clouds:    capacity recon_price mig_out mig_in   (one line per cloud)
//   delays:    I lines of I entries
//   demand:    one line of J entries
//   weights:   static_weight dynamic_weight
//   per slot:  operation prices (I), attachments (J), access delays (J)
//
// Readers return std::nullopt and fill `error` on malformed input; writers
// produce input that the readers round-trip exactly (modulo the usual
// %.17g double formatting, which is lossless).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "mobility/mobility.h"
#include "model/instance.h"

namespace eca::io {

void write_trace(std::ostream& os, const mobility::MobilityTrace& trace);
std::optional<mobility::MobilityTrace> read_trace(std::istream& is,
                                                  std::string* error);

void write_instance(std::ostream& os, const model::Instance& instance);
std::optional<model::Instance> read_instance(std::istream& is,
                                             std::string* error);

// Convenience file wrappers; return false / nullopt on I/O failure.
bool save_instance(const std::string& path, const model::Instance& instance);
std::optional<model::Instance> load_instance(const std::string& path,
                                             std::string* error);

}  // namespace eca::io
