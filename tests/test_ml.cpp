#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/dtree.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/model_io.hpp"
#include "ml/rforest.hpp"
#include "ml/scaler.hpp"

namespace mf {
namespace {

/// y = 2*x0 - 3*x1 + 0.5 + noise
std::pair<std::vector<std::vector<double>>, std::vector<double>>
linear_data(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    x.push_back({a, b});
    y.push_back(2.0 * a - 3.0 * b + 0.5 + noise * rng.normal());
  }
  return {x, y};
}

/// Piecewise target only trees can express exactly.
std::pair<std::vector<std::vector<double>>, std::vector<double>>
step_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.push_back({a, b});
    y.push_back((a > 0.5 ? 1.0 : 0.0) + (b > 0.3 ? 0.5 : 0.0) + 1.0);
  }
  return {x, y};
}

TEST(Scaler, ZeroMeanUnitVariance) {
  StandardScaler scaler;
  const auto [x, y] = linear_data(500, 0.0, 1);
  scaler.fit(x);
  const auto xs = scaler.transform(x);
  double mean = 0.0;
  double var = 0.0;
  for (const auto& row : xs) mean += row[0];
  mean /= static_cast<double>(xs.size());
  for (const auto& row : xs) var += (row[0] - mean) * (row[0] - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(Scaler, ConstantFeatureSurvives) {
  StandardScaler scaler;
  scaler.fit({{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}});
  const auto out = scaler.transform(std::vector<double>{2.0, 5.0});
  EXPECT_TRUE(std::isfinite(out[1]));
  EXPECT_NEAR(out[1], 0.0, 1e-9);
}

TEST(LinReg, RecoversLinearFunction) {
  const auto [x, y] = linear_data(400, 0.0, 2);
  LinearRegression model;
  model.fit(x, y);
  EXPECT_NEAR(model.predict({1.0, 1.0}), -0.5, 1e-6);
  EXPECT_NEAR(model.predict({0.0, 0.0}), 0.5, 1e-6);
}

TEST(LinReg, RobustToNoise) {
  const auto [x, y] = linear_data(2000, 0.1, 3);
  LinearRegression model;
  model.fit(x, y);
  EXPECT_NEAR(model.predict({1.0, -1.0}), 5.5, 0.05);
}

TEST(LinReg, HandlesCollinearFeatures) {
  // x1 == x0: ridge keeps the normal equations solvable.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    x.push_back({a, a});
    y.push_back(3.0 * a);
  }
  LinearRegression model(1e-6);
  EXPECT_NO_THROW(model.fit(x, y));
  EXPECT_NEAR(model.predict({0.5, 0.5}), 1.5, 1e-3);
}

TEST(DTree, FitsStepFunctionExactly) {
  const auto [x, y] = step_data(500, 5);
  DecisionTree tree;
  Rng rng(1);
  tree.fit(x, y, {}, rng);
  const auto pred = tree.predict(x);
  EXPECT_LT(mean_squared_error(pred, y), 1e-9);
}

TEST(DTree, RespectsMaxDepth) {
  const auto [x, y] = linear_data(500, 0.0, 6);
  DecisionTree tree;
  DTreeOptions opts;
  opts.max_depth = 3;
  Rng rng(1);
  tree.fit(x, y, opts, rng);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DTree, ImportanceSumsToOne) {
  const auto [x, y] = step_data(500, 7);
  DecisionTree tree;
  Rng rng(1);
  tree.fit(x, y, {}, rng);
  const auto& imp = tree.feature_importance();
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Feature 0 explains the bigger step (1.0 vs 0.5): higher importance.
  EXPECT_GT(imp[0], imp[1]);
}

TEST(DTree, ConstantTargetIsLeaf) {
  std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  std::vector<double> y = {5.0, 5.0, 5.0};
  DecisionTree tree;
  Rng rng(1);
  tree.fit(x, y, {}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{9.0}), 5.0);
}

TEST(RForest, BeatsSingleTreeOnNoisyData) {
  Rng noise_rng(8);
  auto [x, y] = step_data(600, 8);
  for (double& v : y) v += 0.2 * noise_rng.normal();
  // Held-out set.
  const auto [xt, yt_clean] = step_data(300, 9);

  DecisionTree tree;
  Rng rng(1);
  tree.fit(x, y, {}, rng);
  RandomForest forest;
  RForestOptions opts;
  opts.trees = 60;
  forest.fit(x, y, opts);

  const double tree_err = mean_squared_error(tree.predict(xt), yt_clean);
  const double forest_err = mean_squared_error(forest.predict(xt), yt_clean);
  EXPECT_LT(forest_err, tree_err);
}

TEST(RForest, ImportanceNormalised) {
  const auto [x, y] = step_data(400, 10);
  RandomForest forest;
  RForestOptions opts;
  opts.trees = 40;
  forest.fit(x, y, opts);
  double total = 0.0;
  for (double v : forest.feature_importance()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RForest, DeterministicPerSeed) {
  const auto [x, y] = step_data(200, 11);
  RForestOptions opts;
  opts.trees = 10;
  RandomForest a;
  RandomForest b;
  a.fit(x, y, opts);
  b.fit(x, y, opts);
  const std::vector<double> probe{0.4, 0.6};
  EXPECT_DOUBLE_EQ(a.predict(probe), b.predict(probe));
}

TEST(Mlp, LossDecreasesDuringTraining) {
  const auto [x, y] = linear_data(300, 0.05, 12);
  Mlp mlp;
  MlpOptions opts;
  opts.epochs = 100;
  mlp.fit(x, y, opts);
  const auto& loss = mlp.training_loss();
  ASSERT_EQ(loss.size(), 100u);
  EXPECT_LT(loss.back(), loss.front() * 0.2);
}

TEST(Mlp, ApproximatesSmoothFunction) {
  const auto [x, y] = linear_data(600, 0.0, 13);
  Mlp mlp;
  MlpOptions opts;
  opts.epochs = 300;
  mlp.fit(x, y, opts);
  const double pred = mlp.predict({1.0, 1.0});
  EXPECT_NEAR(pred, -0.5, 0.25);
}

TEST(Metrics, MeanAndMedianRelativeError) {
  const std::vector<double> truth = {1.0, 2.0, 4.0};
  const std::vector<double> pred = {1.1, 2.0, 3.0};
  EXPECT_NEAR(mean_relative_error(pred, truth), (0.1 + 0.0 + 0.25) / 3.0,
              1e-12);
  EXPECT_NEAR(median_relative_error(pred, truth), 0.1, 1e-12);
}

TEST(Metrics, MedianEvenCount) {
  const std::vector<double> truth = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> pred = {1.1, 1.2, 1.3, 1.4};
  EXPECT_NEAR(median_relative_error(pred, truth), 0.25, 1e-12);
}

TEST(Metrics, MedianDegenerateSizes) {
  // Size 1: the single element. Size 2: mean of both (the smallest even
  // input exercises the two-order-statistics path with mid-1 == 0).
  EXPECT_DOUBLE_EQ(median_relative_error({1.3}, {1.0}), 0.3);
  EXPECT_NEAR(median_relative_error({1.1, 1.5}, {1.0, 1.0}), 0.3, 1e-12);
}

TEST(Metrics, UniformContractRejectsEmptyAndMismatchedInputs) {
  // All three metrics share one guard set: empty input and size mismatch
  // throw CheckError instead of dividing by zero / reading out of range.
  const std::vector<double> empty;
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW(mean_relative_error(empty, empty), CheckError);
  EXPECT_THROW(median_relative_error(empty, empty), CheckError);
  EXPECT_THROW(mean_squared_error(empty, empty), CheckError);
  EXPECT_THROW(mean_relative_error(one, two), CheckError);
  EXPECT_THROW(median_relative_error(one, two), CheckError);
  EXPECT_THROW(mean_squared_error(one, two), CheckError);
}

TEST(Metrics, RelativeMetricsRequirePositiveTruth) {
  // CFs are strictly positive; a zero or negative truth value is corrupt
  // input, not a case to silently produce inf/NaN for. MSE has no such
  // restriction.
  const std::vector<double> pred = {1.0, 2.0};
  const std::vector<double> zero_truth = {1.0, 0.0};
  const std::vector<double> neg_truth = {-1.0, 2.0};
  EXPECT_THROW(mean_relative_error(pred, zero_truth), CheckError);
  EXPECT_THROW(median_relative_error(pred, zero_truth), CheckError);
  EXPECT_THROW(mean_relative_error(pred, neg_truth), CheckError);
  EXPECT_THROW(median_relative_error(pred, neg_truth), CheckError);
  EXPECT_DOUBLE_EQ(mean_squared_error(pred, zero_truth), (0.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(mean_squared_error(pred, neg_truth), (4.0 + 0.0) / 2.0);
}

TEST(Dataset, BalanceCapsPerBin) {
  Dataset data;
  data.feature_names = {"x"};
  Rng rng(14);
  for (int i = 0; i < 300; ++i) data.add({1.0 * i}, 0.9, "a");
  for (int i = 0; i < 40; ++i) data.add({2.0 * i}, 1.3, "b");
  Rng balance_rng(15);
  const Dataset balanced = balance_by_target(data, 0.02, 75, balance_rng);
  int at_09 = 0;
  int at_13 = 0;
  for (double v : balanced.y) {
    if (v < 1.0) ++at_09;
    if (v > 1.0) ++at_13;
  }
  EXPECT_EQ(at_09, 75);
  EXPECT_EQ(at_13, 40);
}

TEST(Dataset, SplitSizesAndDisjoint) {
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 100; ++i) {
    data.add({static_cast<double>(i)}, 1.0, std::to_string(i));
  }
  Rng rng(16);
  const auto [train, test] = train_test_split(data, 0.8, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
  std::set<std::string> labels(train.labels.begin(), train.labels.end());
  for (const std::string& l : test.labels) {
    EXPECT_EQ(labels.count(l), 0u);
  }
}

TEST(Dataset, SubsetPreservesOrder) {
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 10; ++i) {
    data.add({static_cast<double>(i)}, i, std::to_string(i));
  }
  const Dataset sub = data.subset({2, 5, 7});
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.y[0], 2.0);
  EXPECT_EQ(sub.y[2], 7.0);
}

// -- model token streams ------------------------------------------------------

/// What ModelReader::f64 must return for one `istream >> string` token.
std::optional<double> reference_f64(const std::string& token) {
  if (token.size() != 17 || token[0] != 'x') return std::nullopt;
  std::uint64_t bits = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    const char c = token[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
      return std::nullopt;
    }
    bits = (bits << 4) | static_cast<std::uint64_t>(
                             c <= '9' ? c - '0' : c - 'a' + 10);
  }
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

template <typename T>
std::optional<T> reference_integer(const std::string& token) {
  T value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

TEST(ModelIo, ReaderTokenisesLikeIstream) {
  // Seeded byte soup over every C-locale whitespace byte, bytes that other
  // locales treat as space (NUL, 0x85, 0xA0) and the characters numbers
  // are made of. Each read must agree with the same read applied to the
  // tokens `istream >> string` splits, up to the first failure, which
  // latches.
  const std::string alphabet = std::string(" \t\n\v\f\r", 6) +
                               std::string("\0\x85\xA0", 3) +
                               "x0123456789abcdefABF-+.#";
  Rng rng(0x70c3);
  int parsed = 0;
  int rejected = 0;
  for (int round = 0; round < 1000; ++round) {
    std::string text;
    const int tokens = static_cast<int>(rng.uniform_int(0, 12));
    for (int t = 0; t < tokens; ++t) {
      text += alphabet[static_cast<std::size_t>(rng.uniform_int(0, 5))];
      switch (rng.uniform_int(0, 2)) {
        case 0: {  // a valid double token
          std::ostringstream out;
          ModelWriter writer(out);
          writer.f64(rng.uniform(-1e6, 1e6));
          text += out.str();
          break;
        }
        case 1:  // a valid integer token
          text += std::to_string(rng.uniform_int(-100000, 100000));
          break;
        default:  // noise
          for (int k = static_cast<int>(rng.uniform_int(1, 18)); k > 0; --k) {
            text += alphabet[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) -
                                       1))];
          }
      }
    }
    std::istringstream split(text);
    std::vector<std::string> expected;
    for (std::string token; split >> token;) expected.push_back(token);

    ModelReader reader(text);
    bool ok = true;
    for (std::size_t i = 0; i <= expected.size() && ok; ++i) {
      const bool have = i < expected.size();
      const std::string token = have ? expected[i] : std::string();
      // Mostly read a token as what it is, so rounds get past their first
      // token; otherwise read it as anything.
      std::int64_t kind = rng.uniform_int(0, 3);
      if (have && rng.uniform_int(0, 4) != 0) {
        if (reference_f64(token)) {
          kind = 3;
        } else if (reference_integer<std::int64_t>(token)) {
          kind = rng.uniform_int(1, 2);
        }
      }
      switch (kind) {
        case 0: {
          const std::string got = reader.str();
          ok = have;
          if (ok) {
            EXPECT_EQ(got, token) << "round " << round;
          }
          break;
        }
        case 1: {
          const std::int64_t got = reader.i64();
          const auto want = reference_integer<std::int64_t>(token);
          ok = have && want.has_value();
          if (ok) {
            EXPECT_EQ(got, *want) << "round " << round;
          }
          break;
        }
        case 2: {
          const std::uint64_t got = reader.u64();
          const auto want = reference_integer<std::uint64_t>(token);
          ok = have && want.has_value();
          if (ok) {
            EXPECT_EQ(got, *want) << "round " << round;
          }
          break;
        }
        default: {
          const double got = reader.f64();
          const auto want = reference_f64(token);
          ok = have && want.has_value();
          if (ok) {
            EXPECT_EQ(std::memcmp(&got, &*want, sizeof got), 0)
                << "round " << round;
          }
        }
      }
      ASSERT_EQ(reader.ok(), ok) << "round " << round << " token " << i;
      ++(ok ? parsed : rejected);
    }
  }
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(rejected, 500);
}

}  // namespace
}  // namespace mf
