// Figure 5 (Section V-D): synthetic random-walk mobility on the Rome metro
// graph, varying the number of users. The paper varies 40..1000 users and
// finds online-approx flat around 1.1 while online-greedy reaches up to
// 1.8. The offline LP at 1000 users needs hours of solver time on our
// single-core budget, so the default sweep stops earlier; extend it with
// ECA_FIG5_USERS (comma-separated list).
//
// One labelled experiment per user count; scripts/report_run.py renders
// the table (with the offline-opt mean cost) from the ECA_EVENTS record.
#include <cstdio>
#include <memory>
#include <string>

#include "algo/baselines.h"
#include "algo/online_approx.h"
#include "bench_common.h"

namespace {

// Each entry must be a whole positive integer: "4O", "abc" or an empty
// entry is a typo, not a request to sweep 4 users or to skip it.
std::vector<std::size_t> user_sweep() {
  const std::string spec = eca::env_string("ECA_FIG5_USERS", "20,40,80");
  std::vector<std::size_t> users;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = spec.find(',', begin);
    const std::string token = spec.substr(begin, comma - begin);
    users.push_back(static_cast<std::size_t>(
        eca::parse_int("ECA_FIG5_USERS entry", token.c_str(), 1)));
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

  for (const std::size_t users : user_sweep()) {
    sim::run_experiment(
        [&](int rep) {
          sim::ScenarioOptions options = rep_scenario(scale, rep);
          options.num_users = users;
          return sim::make_random_walk_instance(options);
        },
        {{"online-greedy",
          [] { return std::make_unique<algo::OnlineGreedy>(); }},
         {"online-approx",
          [] { return std::make_unique<algo::OnlineApprox>(); }}},
        labelled("J=" + std::to_string(users),
                 std::max(1, scale.repetitions - 1)));
  }
  std::printf(
      "\nexpected shape: online-approx stays ~1.1 regardless of user count;\n"
      "online-greedy is clearly worse (paper: up to 1.8).\n");
  return 0;
}
