// Linear program description shared by all LP solvers in the suite.
//
//   minimize    c' x
//   subject to  row_lower <= A x <= row_upper   (one-sided rows use ±inf)
//               var_lower <= x <= var_upper
//
// Rows are stored as triplets; solvers convert to the representation they
// need (dense normal equations for the interior-point method, CSR for PDHG).
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"

namespace eca::solve {

using linalg::Vec;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct LpProblem {
  std::size_t num_vars = 0;
  std::size_t num_rows = 0;
  Vec objective;                           // c, size num_vars
  Vec var_lower;                           // size num_vars
  Vec var_upper;                           // size num_vars (may be +inf)
  std::vector<linalg::Triplet> elements;   // row coefficients
  Vec row_lower;                           // size num_rows (may be -inf)
  Vec row_upper;                           // size num_rows (may be +inf)
  // Optional structural hint: ascending row indices starting each
  // structural block (the offline horizon LP records one entry per cloud
  // and one for its demand rows). Purely advisory — solvers that partition rows across workers
  // align partition boundaries to these starts so no worker straddles a
  // partial block; an empty vector means "no known structure".
  std::vector<std::size_t> row_block_starts;

  // --- Builder helpers -----------------------------------------------------

  // Adds a variable with cost `cost` and bounds [lower, upper]; returns its
  // index.
  std::size_t add_variable(double cost, double lower = 0.0,
                           double upper = kInf) {
    objective.push_back(cost);
    var_lower.push_back(lower);
    var_upper.push_back(upper);
    return num_vars++;
  }

  // Starts a new row with bounds [lower, upper]; returns its index.
  std::size_t add_row(double lower, double upper) {
    row_lower.push_back(lower);
    row_upper.push_back(upper);
    return num_rows++;
  }

  std::size_t add_row_geq(double rhs) { return add_row(rhs, kInf); }
  std::size_t add_row_leq(double rhs) { return add_row(-kInf, rhs); }
  std::size_t add_row_eq(double rhs) { return add_row(rhs, rhs); }

  void set_coefficient(std::size_t row, std::size_t var, double value) {
    elements.push_back({row, var, value});
  }

  [[nodiscard]] linalg::SparseMatrix matrix() const {
    return {num_rows, num_vars, elements};
  }

  // Basic shape validation; returns an empty string when consistent.
  [[nodiscard]] std::string validate() const;
};

enum class SolveStatus {
  kOptimal,
  kPrimalInfeasible,
  kDualInfeasible,   // unbounded primal
  kIterationLimit,
  kNumericalError,
};

const char* to_string(SolveStatus status);

struct LpSolution {
  SolveStatus status = SolveStatus::kNumericalError;
  Vec x;           // primal solution
  Vec row_duals;   // y, one per row (sign convention: >=0 for active lower
                   // bound rows, <=0 for active upper bound rows)
  double objective_value = 0.0;
  int iterations = 0;
  // Relative residuals at termination (diagnostics).
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double gap = 0.0;
};

// Residuals of a candidate solution against the LP, used for acceptance
// decisions and in tests: max relative violation of rows and bounds.
double max_constraint_violation(const LpProblem& lp, const Vec& x);

}  // namespace eca::solve
