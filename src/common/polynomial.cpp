#include "common/polynomial.hpp"

#include <array>
#include <cassert>
#include <stdexcept>

namespace svss {

Polynomial::Polynomial(FieldVec coeffs) : coeffs_(std::move(coeffs)) {
  if (coeffs_.empty()) coeffs_.resize(1);
}

Polynomial Polynomial::random_with_constant(Fp constant, int deg, Rng& rng) {
  FieldVec c(static_cast<std::size_t>(deg) + 1);
  c[0] = constant;
  for (int i = 1; i <= deg; ++i) c[static_cast<std::size_t>(i)] = rng.next_field();
  return Polynomial(std::move(c));
}

Fp Polynomial::eval(Fp x) const {
  Fp acc(0);
  for (auto it = coeffs_.rbegin(); it != coeffs_.rend(); ++it) {
    acc = acc * x + *it;
  }
  return acc;
}

FieldVec Polynomial::evaluate_range(int count) const {
  FieldVec out;
  out.reserve(static_cast<std::size_t>(count));
  for (int x = 1; x <= count; ++x) out.push_back(eval(Fp(x)));
  return out;
}

Polynomial Polynomial::interpolate(
    std::span<const std::pair<Fp, Fp>> points) {
  if (points.empty()) throw std::invalid_argument("interpolate: no points");
  const std::size_t k = points.size();
  // Scratch for inv, prefix and basis, k entries each: on the stack for
  // every degree up to kStackPoints - 1, else one allocation.
  constexpr std::size_t kStackPoints = 32;
  std::array<Fp, 3 * kStackPoints> stack;
  FieldVec heap(k > kStackPoints ? 3 * k : 0);
  Fp* inv = k > kStackPoints ? heap.data() : stack.data();
  Fp* prefix = inv + k;
  Fp* basis = prefix + k;
  // inv[i] = 1 / prod_{j != i} (x_i - x_j), all k inverted with one field
  // inversion (Montgomery's trick): prefix[i] is the product of the first
  // i + 1 denominators, and walking back peels one factor off per step.
  for (std::size_t i = 0; i < k; ++i) {
    inv[i] = Fp(1);
    for (std::size_t j = 0; j < k; ++j) {
      if (j != i) inv[i] *= points[i].first - points[j].first;
    }
    if (inv[i] == Fp(0)) {
      throw std::invalid_argument("interpolate: duplicate x");
    }
    prefix[i] = i == 0 ? inv[i] : prefix[i - 1] * inv[i];
  }
  Fp acc = prefix[k - 1].inverse();
  for (std::size_t i = k; i-- > 0;) {
    Fp denom = inv[i];
    inv[i] = i == 0 ? acc : acc * prefix[i - 1];
    acc *= denom;
  }
  // Build coefficients by accumulating Lagrange basis polynomials; basis
  // holds the coefficients of prod_{j != i} (x - x_j), size terms so far.
  FieldVec result(k, Fp(0));
  for (std::size_t i = 0; i < k; ++i) {
    basis[0] = Fp(1);
    std::size_t size = 1;
    for (std::size_t j = 0; j < k; ++j) {
      if (j == i) continue;
      // basis *= (x - x_j)
      basis[size++] = Fp(0);
      for (std::size_t d = size - 1; d > 0; --d) {
        basis[d] = basis[d - 1] - points[j].first * basis[d];
      }
      basis[0] = -points[j].first * basis[0];
    }
    Fp scale = points[i].second * inv[i];
    for (std::size_t d = 0; d < size; ++d) result[d] += basis[d] * scale;
  }
  return Polynomial(std::move(result));
}

Polynomial Polynomial::interpolate_consecutive(std::span<const Fp> ys) {
  std::vector<std::pair<Fp, Fp>> points;
  points.reserve(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    points.emplace_back(Fp(static_cast<std::int64_t>(i + 1)), ys[i]);
  }
  return interpolate(points);
}

Fp Polynomial::interpolate_at_zero(std::span<const std::pair<Fp, Fp>> points) {
  if (points.empty()) throw std::invalid_argument("interpolate: no points");
  // f(0) = sum_i y_i * prod_{j != i} x_j / (x_j - x_i), summed as one
  // fraction num / den so that only den is ever inverted.
  Fp num(0);
  Fp den(1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    Fp a = points[i].second;
    Fp b(1);
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j == i) continue;
      a *= points[j].first;
      b *= points[j].first - points[i].first;
    }
    if (b == Fp(0)) throw std::invalid_argument("interpolate: duplicate x");
    num = num * b + a * den;
    den *= b;
  }
  return num * den.inverse();
}

std::optional<Polynomial> Polynomial::interpolate_checked(
    const std::vector<std::pair<Fp, Fp>>& points, int deg) {
  if (static_cast<int>(points.size()) < deg + 1) return std::nullopt;
  Polynomial p =
      interpolate(std::span(points).first(static_cast<std::size_t>(deg) + 1));
  for (const auto& [x, y] : points) {
    if (p.eval(x) != y) return std::nullopt;
  }
  return p;
}

}  // namespace svss
