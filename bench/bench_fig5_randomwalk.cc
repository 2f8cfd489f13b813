// Figure 5 (Section V-D): synthetic random-walk mobility on the Rome metro
// graph, varying the number of users. The paper varies 40..1000 users and
// finds online-approx flat around 1.1 while online-greedy reaches up to
// 1.8. The offline LP at 1000 users needs hours of solver time on our
// single-core budget, so the default sweep stops earlier; extend it with
// ECA_FIG5_USERS (comma-separated list).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "bench_common.h"

namespace {

std::vector<std::size_t> user_sweep() {
  const std::string spec = eca::env_string("ECA_FIG5_USERS", "20,40,80");
  std::vector<std::size_t> users;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = spec.find(',', begin);
    const std::string token = spec.substr(begin, comma - begin);
    // Each entry must be a whole positive integer: "4O", "abc" or an empty
    // entry is a typo, not a request to sweep 4 users or to skip it.
    char* end = nullptr;
    const long value = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || value < 1) {
      std::fprintf(stderr,
                   "error: ECA_FIG5_USERS='%s' is invalid (entry '%s' must "
                   "be an integer >= 1)\n",
                   spec.c_str(), token.c_str());
      std::exit(2);
    }
    users.push_back(static_cast<std::size_t>(value));
    if (comma == std::string::npos) return users;
    begin = comma + 1;
  }
}

}  // namespace

int main() {
  using namespace eca;
  using namespace eca::bench;

  const BenchScale scale = read_scale();
  print_header("Figure 5", "random-walk mobility, varying user count",
               scale);

  Table table({"users", "online-greedy", "online-approx", "offline cost"});
  for (std::size_t users : user_sweep()) {
    sim::ExperimentOptions experiment;
    experiment.repetitions = std::max(1, scale.repetitions - 1);
    const sim::ExperimentResult result = sim::run_experiment(
        [&](int rep) {
          sim::ScenarioOptions options = scenario_from_scale(scale);
          options.num_users = users;
          options.seed = scale.seed + 1000 * static_cast<std::uint64_t>(rep);
          return sim::make_random_walk_instance(options);
        },
        {{"online-greedy",
          [] { return std::make_unique<algo::OnlineGreedy>(); }},
         {"online-approx",
          [] { return std::make_unique<algo::OnlineApprox>(); }}},
        experiment);
    table.add_row({std::to_string(users),
                   ratio_cell(result.find("online-greedy")->ratio),
                   ratio_cell(result.find("online-approx")->ratio),
                   Table::num(result.offline_cost.mean(), 1)});
  }
  emit(table, scale.csv);
  std::printf(
      "\nexpected shape: online-approx stays ~1.1 regardless of user count;\n"
      "online-greedy is clearly worse (paper: up to 1.8).\n");
  return 0;
}
