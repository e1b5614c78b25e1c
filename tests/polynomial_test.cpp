// Unit tests: univariate polynomial sampling, evaluation, interpolation,
// and the checked interpolation used by the reconstruct phases.
#include "common/polynomial.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace svss {
namespace {

TEST(Polynomial, DefaultIsZero) {
  Polynomial p;
  EXPECT_EQ(p.constant(), Fp(0));
  EXPECT_EQ(p.eval(Fp(17)), Fp(0));
}

TEST(Polynomial, EvalMatchesHornerReference) {
  // p(x) = 3 + 2x + x^2
  Polynomial p(FieldVec{Fp(3), Fp(2), Fp(1)});
  EXPECT_EQ(p.eval(Fp(0)), Fp(3));
  EXPECT_EQ(p.eval(Fp(1)), Fp(6));
  EXPECT_EQ(p.eval(Fp(2)), Fp(11));
  EXPECT_EQ(p.eval(Fp(10)), Fp(123));
}

TEST(Polynomial, RandomWithConstantFixesSecret) {
  Rng rng(1);
  for (int deg = 0; deg <= 6; ++deg) {
    Polynomial p = Polynomial::random_with_constant(Fp(777), deg, rng);
    EXPECT_EQ(p.constant(), Fp(777));
    EXPECT_EQ(p.degree_bound(), deg);
  }
}

TEST(Polynomial, InterpolateRecoversPolynomial) {
  Rng rng(2);
  for (int deg = 0; deg <= 8; ++deg) {
    Polynomial p = Polynomial::random_with_constant(rng.next_field(), deg, rng);
    std::vector<std::pair<Fp, Fp>> pts;
    for (int x = 1; x <= deg + 1; ++x) pts.emplace_back(Fp(x), p.eval(Fp(x)));
    Polynomial q = Polynomial::interpolate(pts);
    EXPECT_EQ(p, q) << "deg=" << deg;
  }
}

TEST(Polynomial, InterpolateArbitraryPoints) {
  std::vector<std::pair<Fp, Fp>> pts{{Fp(5), Fp(9)}, {Fp(11), Fp(2)},
                                     {Fp(40), Fp(33)}};
  Polynomial p = Polynomial::interpolate(pts);
  for (const auto& [x, y] : pts) EXPECT_EQ(p.eval(x), y);
}

TEST(Polynomial, InterpolateRejectsDuplicateX) {
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(1)}, {Fp(1), Fp(2)}};
  EXPECT_THROW(Polynomial::interpolate(pts), std::invalid_argument);
}

TEST(Polynomial, InterpolateRejectsEmpty) {
  EXPECT_THROW(Polynomial::interpolate({}), std::invalid_argument);
}

// `k` points at distinct random nonzero x with random y.
std::vector<std::pair<Fp, Fp>> random_points(Rng& rng, int k) {
  std::set<std::uint64_t> xs;
  std::vector<std::pair<Fp, Fp>> pts;
  while (static_cast<int>(pts.size()) < k) {
    Fp x = rng.next_field();
    if (x == Fp(0) || !xs.insert(x.value()).second) continue;
    pts.emplace_back(x, rng.next_field());
  }
  return pts;
}

// Textbook Lagrange: one field inversion per basis polynomial.
FieldVec reference_coefficients(const std::vector<std::pair<Fp, Fp>>& pts) {
  FieldVec result(pts.size(), Fp(0));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    FieldVec basis{Fp(1)};
    Fp denom(1);
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j == i) continue;
      FieldVec next(basis.size() + 1, Fp(0));
      for (std::size_t d = 0; d < basis.size(); ++d) {
        next[d + 1] += basis[d];
        next[d] -= pts[j].first * basis[d];
      }
      basis = next;
      denom *= pts[i].first - pts[j].first;
    }
    Fp scale = pts[i].second * denom.inverse();
    for (std::size_t d = 0; d < basis.size(); ++d) {
      result[d] += basis[d] * scale;
    }
  }
  return result;
}

// The batch-inverted interpolation passes through every point and equals
// the one-inversion-per-point reference coefficient for coefficient.
TEST(Polynomial, InterpolateMatchesReferenceOnRandomPoints) {
  Rng rng(21);
  for (int k = 1; k <= 16; ++k) {
    for (int trial = 0; trial < 8; ++trial) {
      auto pts = random_points(rng, k);
      Polynomial p = Polynomial::interpolate(pts);
      EXPECT_EQ(p.degree_bound(), k - 1);
      for (const auto& [x, y] : pts) EXPECT_EQ(p.eval(x), y) << "k=" << k;
      EXPECT_EQ(p.coefficients(), reference_coefficients(pts)) << "k=" << k;
    }
  }
}

TEST(Polynomial, InterpolateRejectsDuplicateXAnywhere) {
  Rng rng(22);
  for (int k = 2; k <= 16; ++k) {
    auto pts = random_points(rng, k);
    // Repeat the first x at the last position with a different y.
    pts.back().first = pts.front().first;
    EXPECT_THROW(Polynomial::interpolate(pts), std::invalid_argument) << k;
    EXPECT_THROW(Polynomial::interpolate_at_zero(pts), std::invalid_argument)
        << k;
  }
}

TEST(Polynomial, InterpolateAtZeroMatchesConstant) {
  Rng rng(23);
  for (int k = 1; k <= 16; ++k) {
    for (int trial = 0; trial < 8; ++trial) {
      auto pts = random_points(rng, k);
      EXPECT_EQ(Polynomial::interpolate_at_zero(pts),
                Polynomial::interpolate(pts).constant())
          << "k=" << k;
    }
  }
  // The share points of processes 1..t+1, as MW-SVSS's R' uses them.
  Polynomial f = Polynomial::random_with_constant(Fp(4242), 3, rng);
  std::vector<std::pair<Fp, Fp>> shares;
  for (int x = 1; x <= 4; ++x) shares.emplace_back(Fp(x), f.eval(Fp(x)));
  EXPECT_EQ(Polynomial::interpolate_at_zero(shares), Fp(4242));
  EXPECT_THROW(Polynomial::interpolate_at_zero({}), std::invalid_argument);
}

TEST(Polynomial, CheckedAcceptsConsistentOversampledPoints) {
  Rng rng(3);
  Polynomial p = Polynomial::random_with_constant(Fp(5), 3, rng);
  std::vector<std::pair<Fp, Fp>> pts;
  for (int x = 1; x <= 10; ++x) pts.emplace_back(Fp(x), p.eval(Fp(x)));
  auto q = Polynomial::interpolate_checked(pts, 3);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, p);
}

TEST(Polynomial, CheckedRejectsOneCorruptPoint) {
  Rng rng(4);
  Polynomial p = Polynomial::random_with_constant(Fp(5), 2, rng);
  std::vector<std::pair<Fp, Fp>> pts;
  for (int x = 1; x <= 8; ++x) pts.emplace_back(Fp(x), p.eval(Fp(x)));
  pts[6].second += Fp(1);  // corrupt a point beyond the interpolation head
  EXPECT_FALSE(Polynomial::interpolate_checked(pts, 2).has_value());
}

TEST(Polynomial, CheckedRejectsTooFewPoints) {
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(1)}, {Fp(2), Fp(2)}};
  EXPECT_FALSE(Polynomial::interpolate_checked(pts, 2).has_value());
}

TEST(Polynomial, CheckedDetectsHigherDegree) {
  // x^3 sampled at 5 points is not a degree-2 polynomial.
  Polynomial cubic(FieldVec{Fp(0), Fp(0), Fp(0), Fp(1)});
  std::vector<std::pair<Fp, Fp>> pts;
  for (int x = 1; x <= 5; ++x) pts.emplace_back(Fp(x), cubic.eval(Fp(x)));
  EXPECT_FALSE(Polynomial::interpolate_checked(pts, 2).has_value());
}

TEST(Polynomial, EvaluateRangeMatchesEval) {
  Rng rng(6);
  Polynomial p = Polynomial::random_with_constant(Fp(1), 4, rng);
  FieldVec range = p.evaluate_range(7);
  ASSERT_EQ(range.size(), 7u);
  for (int x = 1; x <= 7; ++x) {
    EXPECT_EQ(range[static_cast<std::size_t>(x - 1)], p.eval(Fp(x)));
  }
}

// Secrecy property backing the Hiding proofs: t points of a random
// degree-t polynomial are (jointly) uniform, i.e. they do not determine
// the constant term.  We spot-check that for every value of t points there
// exists a consistent polynomial with any prescribed secret.
TEST(Polynomial, AnySecretConsistentWithTPoints) {
  Rng rng(8);
  int t = 3;
  Polynomial p = Polynomial::random_with_constant(Fp(1234), t, rng);
  std::vector<std::pair<Fp, Fp>> leaked;
  for (int x = 1; x <= t; ++x) leaked.emplace_back(Fp(x), p.eval(Fp(x)));
  for (std::int64_t fake = 0; fake < 20; ++fake) {
    auto pts = leaked;
    pts.emplace_back(Fp(0), Fp(fake));
    Polynomial q = Polynomial::interpolate(pts);
    EXPECT_EQ(q.constant(), Fp(fake));
    for (const auto& [x, y] : leaked) EXPECT_EQ(q.eval(x), y);
  }
}

class PolynomialDegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PolynomialDegreeSweep, RoundTripInterpolationAtEveryDegree) {
  int deg = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(deg));
  Polynomial p = Polynomial::random_with_constant(rng.next_field(), deg, rng);
  std::vector<std::pair<Fp, Fp>> pts;
  for (int x = 1; x <= deg + 1; ++x) pts.emplace_back(Fp(x), p.eval(Fp(x)));
  auto q = Polynomial::interpolate_checked(pts, deg);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->constant(), p.constant());
  EXPECT_EQ(q->eval(Fp(12345)), p.eval(Fp(12345)));
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolynomialDegreeSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace svss
