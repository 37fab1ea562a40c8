#include "math/nnls.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

namespace juggler::math {

namespace {

// Computes a^T * a (restricted to the given column subset) and a^T * b.
void NormalEquations(const Matrix& a, const std::vector<double>& b,
                     const std::vector<int>& cols, Matrix* ata,
                     std::vector<double>* atb) {
  const int k = static_cast<int>(cols.size());
  *ata = Matrix(k, k);
  atb->assign(k, 0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < k; ++j) {
      double s = 0.0;
      for (int r = 0; r < a.rows(); ++r) s += a(r, cols[i]) * a(r, cols[j]);
      (*ata)(i, j) = s;
      (*ata)(j, i) = s;
    }
    double s = 0.0;
    for (int r = 0; r < a.rows(); ++r) s += a(r, cols[i]) * b[r];
    (*atb)[i] = s;
  }
}

// Gaussian elimination with partial pivoting on the leading n x n block of
// `matrix` and the first n entries of `rhs_io`, both overwritten. The
// solution goes to the first n entries of `x` (untouched on failure).
Status SolveInPlace(int n, Matrix* matrix, std::vector<double>* rhs_io,
                    std::vector<double>* x) {
  Matrix& m = *matrix;
  std::vector<double>& rhs = *rhs_io;
  for (int col = 0; col < n; ++col) {
    // Partial pivoting.
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::fabs(m(r, col)) > std::fabs(m(pivot, col))) pivot = r;
    }
    if (std::fabs(m(pivot, col)) < 1e-12) {
      return Status::FailedPrecondition("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (int c = 0; c < n; ++c) std::swap(m(pivot, c), m(col, c));
      std::swap(rhs[pivot], rhs[col]);
    }
    for (int r = col + 1; r < n; ++r) {
      const double f = m(r, col) / m(col, col);
      if (f == 0.0) continue;
      for (int c = col; c < n; ++c) m(r, c) -= f * m(col, c);
      rhs[r] -= f * rhs[col];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double s = rhs[r];
    for (int c = r + 1; c < n; ++c) s -= m(r, c) * (*x)[c];
    (*x)[r] = s / m(r, r);
  }
  return Status::OK();
}

// Calls block(std::integral_constant<int, W>{}, first) for consecutive
// blocks of at most four sums covering [0, count). W is a compile-time
// constant so that a block's sums stay in registers; the blocks also unroll
// their W-loop, without which GCC keeps three or more sums in memory and a
// pass runs ~4x slower.
template <typename Block>
void ForEachBlock(int count, Block block) {
  int t = 0;
  for (; t + 4 <= count; t += 4) block(std::integral_constant<int, 4>{}, t);
  switch (count - t) {
    case 3:
      block(std::integral_constant<int, 3>{}, t);
      break;
    case 2:
      block(std::integral_constant<int, 2>{}, t);
      break;
    case 1:
      block(std::integral_constant<int, 1>{}, t);
      break;
    default:
      break;
  }
}

// Sums work(r, lhs[t]) * work(r, rhs[t]) over the rows for W column pairs in
// one pass. Each sum is the same chain as a one-pair loop — 0.0, then every
// row's product added in row order — but the W independent chains overlap.
template <int W>
void SumProductsBlock(const Matrix& work, const int* lhs, const int* rhs,
                      double* out) {
  double s[W] = {};
  for (int r = 0; r < work.rows(); ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < W; ++t) s[t] += work(r, lhs[t]) * work(r, rhs[t]);
  }
  for (int t = 0; t < W; ++t) out[t] = s[t];
}

// The negated gradient a^T (b - a x) at W columns in one pass. Each row's
// residual b[r] - sum_c a(r, c) * x[c] is formed as a loop over c would
// form it, then added into W sums that each run in row order from 0.0.
// `work` holds the n columns of a, then b.
template <int W>
void GradientBlock(const Matrix& work, int n, const std::vector<double>& x,
                   const int* cols, double* out) {
  double s[W] = {};
  for (int r = 0; r < work.rows(); ++r) {
    double resid = work(r, n);
    for (int c = 0; c < n; ++c) resid -= work(r, c) * x[c];
#pragma GCC unroll 4
    for (int t = 0; t < W; ++t) s[t] += work(r, cols[t]) * resid;
  }
  for (int t = 0; t < W; ++t) out[t] = s[t];
}

}  // namespace

Status SolveLinearSystem(const Matrix& a, const std::vector<double>& b,
                         std::vector<double>* x) {
  const int n = a.rows();
  if (a.cols() != n || static_cast<int>(b.size()) != n) {
    return Status::InvalidArgument("SolveLinearSystem: shape mismatch");
  }
  Matrix m = a;
  std::vector<double> rhs = b;
  x->assign(n, 0.0);
  return SolveInPlace(n, &m, &rhs, x);
}

Status LeastSquares(const Matrix& a, const std::vector<double>& b,
                    std::vector<double>* x) {
  if (a.rows() != static_cast<int>(b.size())) {
    return Status::InvalidArgument("LeastSquares: shape mismatch");
  }
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument("LeastSquares: underdetermined system");
  }
  std::vector<int> cols(a.cols());
  for (int i = 0; i < a.cols(); ++i) cols[i] = i;
  Matrix ata;
  std::vector<double> atb;
  NormalEquations(a, b, cols, &ata, &atb);
  // Tiny ridge keeps nearly-collinear designs (common with e*f features over
  // a 3x3 grid) solvable without visibly biasing the fit.
  for (int i = 0; i < ata.rows(); ++i) ata(i, i) += 1e-9 * (ata(i, i) + 1.0);
  x->assign(a.cols(), 0.0);
  return SolveInPlace(a.cols(), &ata, &atb, x);
}

Status NonNegativeLeastSquares(const Matrix& a, const std::vector<double>& b,
                               std::vector<double>* x) {
  const int n = a.cols();
  const int m = a.rows();
  if (m != static_cast<int>(b.size())) {
    return Status::InvalidArgument("NNLS: shape mismatch");
  }
  x->assign(n, 0.0);
  if (n == 0) return Status::OK();

  // Lawson–Hanson: maintain a passive set P of coefficients allowed to be
  // positive; move variables between P and the active (zero) set guided by
  // the gradient w = a^T (b - a x).
  //
  // Every sum below is the one the textbook loop computes, term for term in
  // row order; only which sums are formed, and when, differs. `work` holds
  // the columns of a, then b. The passive-set sub-systems draw on a cache
  // of a_i^T a_j (i <= j) and a_i^T b, each summed once on first use, and
  // are solved in place: the loops allocate nothing.
  const int kB = n;
  Matrix work(m, n + 1);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) work(r, c) = a(r, c);
    work(r, kB) = b[r];
  }
  Matrix normal(n, n + 1);  // normal(i, j) = a_i^T a_j; column kB: a_i^T b.
  std::vector<char> known(static_cast<size_t>(n) * (n + 1), 0);
  auto slot = [n](int i, int j) {
    return static_cast<size_t>(i) * (n + 1) + j;
  };
  std::vector<bool> passive(n, false);
  std::vector<int> cols, lhs, rhs;
  cols.reserve(n);
  lhs.reserve(static_cast<size_t>(n) * (n + 1));
  rhs.reserve(static_cast<size_t>(n) * (n + 1));
  std::vector<double> sums(static_cast<size_t>(n) * (n + 1));
  Matrix sub(n, n);
  std::vector<double> sub_rhs(n), z(n);
  const int max_outer = 3 * n + 30;

  for (int outer = 0; outer < max_outer; ++outer) {
    // The gradient of a passive coefficient is never read, and with every
    // coefficient passive there is nothing to pick: skip those sums.
    lhs.clear();
    for (int c = 0; c < n; ++c) {
      if (!passive[c]) lhs.push_back(c);
    }
    if (lhs.empty()) break;
    // Gradient of 0.5*||ax-b||^2 at current x, negated.
    ForEachBlock(static_cast<int>(lhs.size()), [&](auto w, int t) {
      GradientBlock<decltype(w)::value>(work, n, *x, &lhs[t], &sums[t]);
    });
    double wmax = -std::numeric_limits<double>::infinity();
    int tmax = -1;
    for (size_t t = 0; t < lhs.size(); ++t) {
      if (sums[t] > wmax) {
        wmax = sums[t];
        tmax = lhs[t];
      }
    }
    if (tmax < 0 || wmax <= 1e-10) break;  // KKT satisfied.
    passive[tmax] = true;

    // Inner loop: solve the unconstrained problem on P; clip negatives.
    for (int inner = 0; inner < max_outer; ++inner) {
      cols.clear();
      for (int c = 0; c < n; ++c) {
        if (passive[c]) cols.push_back(c);
      }
      const int k = static_cast<int>(cols.size());
      lhs.clear();
      rhs.clear();
      for (int i = 0; i < k; ++i) {
        for (int j = i; j <= k; ++j) {
          const int col = j < k ? cols[j] : kB;
          if (!known[slot(cols[i], col)]) {
            lhs.push_back(cols[i]);
            rhs.push_back(col);
          }
        }
      }
      ForEachBlock(static_cast<int>(lhs.size()), [&](auto w, int t) {
        SumProductsBlock<decltype(w)::value>(work, &lhs[t], &rhs[t], &sums[t]);
      });
      for (size_t t = 0; t < lhs.size(); ++t) {
        normal(lhs[t], rhs[t]) = sums[t];
        known[slot(lhs[t], rhs[t])] = 1;
      }
      for (int i = 0; i < k; ++i) {
        for (int j = i; j < k; ++j) {
          sub(i, j) = normal(cols[i], cols[j]);
          sub(j, i) = normal(cols[i], cols[j]);
        }
        sub_rhs[i] = normal(cols[i], kB);
      }
      for (int i = 0; i < k; ++i) sub(i, i) += 1e-12 * (sub(i, i) + 1.0);
      Status st = SolveInPlace(k, &sub, &sub_rhs, &z);
      if (!st.ok()) {
        // Degenerate subset: drop the most recently added variable.
        passive[cols.back()] = false;
        continue;
      }
      bool all_positive = true;
      for (int i = 0; i < k; ++i) {
        if (z[i] <= 0.0) {
          all_positive = false;
          break;
        }
      }
      if (all_positive) {
        std::fill(x->begin(), x->end(), 0.0);
        for (int i = 0; i < k; ++i) (*x)[cols[i]] = z[i];
        break;
      }
      // Step from x toward z, stopping at the first coefficient hitting 0.
      double alpha = 1.0;
      for (int i = 0; i < k; ++i) {
        if (z[i] <= 0.0) {
          const double xi = (*x)[cols[i]];
          const double denom = xi - z[i];
          if (denom > 0.0) alpha = std::min(alpha, xi / denom);
        }
      }
      for (int i = 0; i < k; ++i) {
        (*x)[cols[i]] += alpha * (z[i] - (*x)[cols[i]]);
        if ((*x)[cols[i]] <= 1e-14) {
          (*x)[cols[i]] = 0.0;
          passive[cols[i]] = false;
        }
      }
    }
  }
  return Status::OK();
}

double ResidualNorm(const Matrix& a, const std::vector<double>& x,
                    const std::vector<double>& b) {
  double ss = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    double s = -b[r];
    for (int c = 0; c < a.cols(); ++c) s += a(r, c) * x[c];
    ss += s * s;
  }
  return std::sqrt(ss);
}

}  // namespace juggler::math
