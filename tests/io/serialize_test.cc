#include "io/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/scenario.h"

namespace eca::io {
namespace {

TEST(TraceIo, RoundTripsRandomWalk) {
  Rng rng(5);
  const mobility::RandomWalkMobility walk(geo::rome_metro());
  const mobility::MobilityTrace original = walk.generate(rng, 7, 9);
  std::stringstream buffer;
  write_trace(buffer, original);
  std::string error;
  const auto parsed = read_trace(buffer, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_slots, original.num_slots);
  EXPECT_EQ(parsed->num_users, original.num_users);
  EXPECT_EQ(parsed->attachment, original.attachment);
  for (std::size_t t = 0; t < original.num_slots; ++t) {
    for (std::size_t j = 0; j < original.num_users; ++j) {
      EXPECT_DOUBLE_EQ(parsed->position_at(t, j).latitude_deg,
                       original.position_at(t, j).latitude_deg);
      EXPECT_DOUBLE_EQ(parsed->position_at(t, j).longitude_deg,
                       original.position_at(t, j).longitude_deg);
    }
  }
}

TEST(TraceIo, PositionFreeTraceRoundTripsAttachments) {
  Rng rng(6);
  const mobility::RandomWalkMobility walk(geo::rome_metro());
  mobility::TraceOptions layout;
  layout.retain_positions = false;
  const mobility::MobilityTrace original =
      walk.generate(rng, 5, 4, layout);
  std::stringstream buffer;
  write_trace(buffer, original);
  std::string error;
  const auto parsed = read_trace(buffer, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->attachment, original.attachment);
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream buffer("not-a-trace v1\n1 1\n");
  std::string error;
  EXPECT_FALSE(read_trace(buffer, &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(TraceIo, RejectsTruncatedBody) {
  std::stringstream buffer("eca-trace v1\n2 3\n0 1 2\n");
  std::string error;
  EXPECT_FALSE(read_trace(buffer, &error).has_value());
}

TEST(InstanceIo, RoundTripsScenario) {
  sim::ScenarioOptions options;
  options.num_users = 6;
  options.num_slots = 4;
  options.seed = 77;
  const model::Instance original = sim::make_rome_taxi_instance(options, 1);
  std::stringstream buffer;
  write_instance(buffer, original);
  std::string error;
  const auto parsed = read_instance(buffer, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_clouds, original.num_clouds);
  EXPECT_EQ(parsed->num_users, original.num_users);
  EXPECT_EQ(parsed->num_slots, original.num_slots);
  EXPECT_EQ(parsed->demand, original.demand);
  EXPECT_EQ(parsed->attachment, original.attachment);
  EXPECT_EQ(parsed->operation_price, original.operation_price);
  EXPECT_EQ(parsed->access_delay, original.access_delay);
  for (std::size_t i = 0; i < original.num_clouds; ++i) {
    EXPECT_DOUBLE_EQ(parsed->clouds[i].capacity,
                     original.clouds[i].capacity);
    EXPECT_DOUBLE_EQ(parsed->clouds[i].reconfiguration_price,
                     original.clouds[i].reconfiguration_price);
    EXPECT_DOUBLE_EQ(parsed->clouds[i].migration_in_price,
                     original.clouds[i].migration_in_price);
    EXPECT_DOUBLE_EQ(parsed->clouds[i].migration_out_price,
                     original.clouds[i].migration_out_price);
  }
  EXPECT_EQ(parsed->inter_cloud_delay, original.inter_cloud_delay);
  EXPECT_DOUBLE_EQ(parsed->weights.static_weight,
                   original.weights.static_weight);
  EXPECT_DOUBLE_EQ(parsed->weights.dynamic_weight,
                   original.weights.dynamic_weight);
}

TEST(InstanceIo, ParsedInstanceValidates) {
  sim::ScenarioOptions options;
  options.num_users = 4;
  options.num_slots = 3;
  options.seed = 13;
  const model::Instance original = sim::make_random_walk_instance(options);
  std::stringstream buffer;
  write_instance(buffer, original);
  const auto parsed = read_instance(buffer, nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->validate().empty());
}

TEST(InstanceIo, RejectsCorruptedBody) {
  sim::ScenarioOptions options;
  options.num_users = 4;
  options.num_slots = 3;
  options.seed = 17;
  const model::Instance original = sim::make_random_walk_instance(options);
  std::stringstream buffer;
  write_instance(buffer, original);
  std::string text = buffer.str();
  text.resize(text.size() / 2);  // truncate
  std::stringstream truncated(text);
  std::string error;
  EXPECT_FALSE(read_instance(truncated, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(InstanceIo, HugeHeaderOverShortBodyFailsWithoutAllocatingIt) {
  // Each dimension passes the plausibility check, but I×T×J together would
  // need terabytes; the body ends after the weights. The reader must fail
  // on the first missing per-slot row instead of sizing every array from
  // the header.
  std::string text = "eca-instance v1\n1 1000000 1000000\n1 0 0 0\n0\n";
  text.reserve(text.size() + 2000000 + 8);
  for (int j = 0; j < 1000000; ++j) text += "1 ";
  text += "\n1 1\n";
  std::stringstream input(text);
  std::string error;
  EXPECT_FALSE(read_instance(input, &error).has_value());
  EXPECT_NE(error.find("operation price"), std::string::npos) << error;
}

TEST(InstanceIo, FileSaveLoad) {
  sim::ScenarioOptions options;
  options.num_users = 3;
  options.num_slots = 2;
  options.seed = 19;
  const model::Instance original = sim::make_random_walk_instance(options);
  const std::string path = ::testing::TempDir() + "/eca_instance.txt";
  ASSERT_TRUE(save_instance(path, original));
  std::string error;
  const auto loaded = load_instance(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->demand, original.demand);
}

TEST(InstanceIo, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(load_instance("/nonexistent/nope.txt", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace eca::io
