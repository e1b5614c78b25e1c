// Univariate polynomials over GF(p): sampling, evaluation, interpolation.
//
// Degree-t polynomials are the workhorse of the paper's secret sharing: a
// secret s is hidden as f(0) of a random degree-t polynomial, and any t+1
// evaluation points determine f while any t points reveal nothing.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/field.hpp"
#include "common/rng.hpp"

namespace svss {

// Value-semantic polynomial, stored as coefficients c0 + c1 x + ... .
// Invariant: coeffs_ is non-empty; degree() == coeffs_.size() - 1 as a
// *bound* (leading coefficients may be zero — degree-t sharing cares about
// the bound, not the exact degree).
class Polynomial {
 public:
  Polynomial() : coeffs_(1) {}
  explicit Polynomial(FieldVec coeffs);

  // A uniformly random polynomial of degree <= deg with p(0) == constant.
  static Polynomial random_with_constant(Fp constant, int deg, Rng& rng);

  // Lagrange interpolation through distinct-x points.  Number of points
  // determines the degree bound (k points -> degree <= k-1).  Throws
  // std::invalid_argument on no points or a duplicate x.
  static Polynomial interpolate(std::span<const std::pair<Fp, Fp>> points);
  // interpolate() through (1, ys[0]), (2, ys[1]), ..., (k, ys[k-1]): the
  // shape every dealt share vector has.
  static Polynomial interpolate_consecutive(std::span<const Fp> ys);

  // interpolate(points).constant() without building the polynomial: the
  // Lagrange form evaluated at 0, with one field inversion.  Same throws.
  static Fp interpolate_at_zero(std::span<const std::pair<Fp, Fp>> points);

  // Interpolates through `points` and checks that *all* of them (if more
  // than deg+1 are given) lie on one polynomial of degree <= deg.  Returns
  // nullopt if they are inconsistent.  This is the reconstruct-phase check
  // in MW-SVSS/SVSS ("if f-bar exists ... otherwise output bottom").
  static std::optional<Polynomial> interpolate_checked(
      const std::vector<std::pair<Fp, Fp>>& points, int deg);

  [[nodiscard]] Fp eval(Fp x) const;
  [[nodiscard]] Fp constant() const { return coeffs_.front(); }
  [[nodiscard]] int degree_bound() const {
    return static_cast<int>(coeffs_.size()) - 1;
  }
  [[nodiscard]] const FieldVec& coefficients() const { return coeffs_; }

  // Evaluations at x = 1..count, the canonical share vector for processes
  // with one-based identifiers.
  [[nodiscard]] FieldVec evaluate_range(int count) const;

  friend bool operator==(const Polynomial&, const Polynomial&) = default;

 private:
  FieldVec coeffs_;
};

}  // namespace svss
