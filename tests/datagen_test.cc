#include "datagen/generator.h"

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include <gtest/gtest.h>

namespace embsr {

// Without a printer gtest dumps the config's raw bytes into the listed test
// name, and the first of them are std::string's heap pointer, so the ctest
// names of the preset cases changed with every build.
static void PrintTo(const GeneratorConfig& cfg, std::ostream* os) {
  *os << cfg.name;
}

namespace {

TEST(GeneratorTest, Deterministic) {
  GeneratorConfig cfg = JdAppliancesConfig(0.05);
  auto a = GenerateSessions(cfg);
  auto b = GenerateSessions(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].events.size(), b[i].events.size());
    for (size_t j = 0; j < a[i].events.size(); ++j) {
      EXPECT_EQ(a[i].events[j], b[i].events[j]);
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig cfg = JdAppliancesConfig(0.05);
  auto a = GenerateSessions(cfg);
  cfg.seed += 1;
  auto b = GenerateSessions(cfg);
  bool any_diff = false;
  for (size_t i = 0; i < std::min(a.size(), b.size()) && !any_diff; ++i) {
    any_diff = a[i].events.size() != b[i].events.size();
  }
  EXPECT_TRUE(any_diff);
}

class GeneratorPresetTest
    : public ::testing::TestWithParam<GeneratorConfig> {};

INSTANTIATE_TEST_SUITE_P(
    Presets, GeneratorPresetTest,
    ::testing::Values(JdAppliancesConfig(0.05), JdComputersConfig(0.05),
                      TrivagoConfig(0.05)),
    [](const ::testing::TestParamInfo<GeneratorConfig>& info) {
      std::string n = info.param.name;
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST_P(GeneratorPresetTest, EventsWithinVocabularies) {
  const GeneratorConfig cfg = GetParam();
  for (const auto& s : GenerateSessions(cfg)) {
    ASSERT_FALSE(s.events.empty());
    for (const auto& e : s.events) {
      EXPECT_GE(e.item, 0);
      EXPECT_LT(e.item, cfg.num_items());
      EXPECT_GE(e.operation, 0);
      EXPECT_LT(e.operation, cfg.num_operations);
    }
  }
}

TEST_P(GeneratorPresetTest, EveryItemVisitStartsWithEntryOperation) {
  const GeneratorConfig cfg = GetParam();
  const int64_t entry = cfg.num_operations >= 10
                            ? static_cast<int64_t>(kJdClick)
                            : static_cast<int64_t>(kTrvImpression);
  for (const auto& s : GenerateSessions(cfg)) {
    int64_t prev_item = -1;
    for (const auto& e : s.events) {
      if (e.item != prev_item) {
        EXPECT_EQ(e.operation, entry)
            << "first operation on a new item must be the entry op";
        prev_item = e.item;
      }
    }
  }
}

TEST_P(GeneratorPresetTest, PreprocessesToUsableDataset) {
  const GeneratorConfig cfg = GetParam();
  auto result = MakeDataset(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& d = result.value();
  EXPECT_GT(d.num_items, 50);
  EXPECT_EQ(d.num_operations, cfg.num_operations);
  EXPECT_GT(d.train.size(), d.valid.size());
  EXPECT_GT(d.test.size(), d.valid.size());
  EXPECT_GT(d.TotalMicroBehaviors(),
            static_cast<int64_t>(d.train.size()) * 3);
}

TEST(GeneratorTest, TrivagoTargetNeverInSession) {
  // The Trivago preset models click-outs on *new* hotels: the ground truth
  // must not appear among the session's input items. This is the property
  // behind the paper's S-POP = 0 row.
  auto result = MakeDataset(TrivagoConfig(0.1));
  ASSERT_TRUE(result.ok());
  int in_session = 0, total = 0;
  for (const auto& ex : result.value().test) {
    ++total;
    if (std::find(ex.macro_items.begin(), ex.macro_items.end(),
                  ex.target) != ex.macro_items.end()) {
      ++in_session;
    }
  }
  ASSERT_GT(total, 0);
  // A handful of sessions may regain an in-session target when the support
  // filter drops the generated target and promotes an earlier item; the
  // rate must stay negligible (paper: S-POP scores ~0 on Trivago).
  EXPECT_LE(in_session, 1 + total / 50);
}

TEST(GeneratorTest, JdTargetsOftenRepeatButNotAlways) {
  auto result = MakeDataset(JdAppliancesConfig(0.1));
  ASSERT_TRUE(result.ok());
  int in_session = 0, total = 0;
  for (const auto& ex : result.value().test) {
    ++total;
    if (std::find(ex.macro_items.begin(), ex.macro_items.end(),
                  ex.target) != ex.macro_items.end()) {
      ++in_session;
    }
  }
  ASSERT_GT(total, 0);
  const double frac = static_cast<double>(in_session) / total;
  EXPECT_GT(frac, 0.10);  // repeats exist (S-POP viable, as in the paper)
  EXPECT_LT(frac, 0.70);  // but are not the whole story
}

TEST(GeneratorTest, JdSessionsUseDeepOperations) {
  // The engagement ladder must actually fire: carts and orders appear.
  auto sessions = GenerateSessions(JdAppliancesConfig(0.1));
  int64_t carts = 0, orders = 0, comments = 0, clicks = 0;
  for (const auto& s : sessions) {
    for (const auto& e : s.events) {
      if (e.operation == kJdAddToCart) ++carts;
      if (e.operation == kJdOrder) ++orders;
      if (e.operation == kJdReadComments) ++comments;
      if (e.operation == kJdClick) ++clicks;
    }
  }
  EXPECT_GT(carts, 0);
  EXPECT_GT(orders, 0);
  EXPECT_GT(comments, 0);
  EXPECT_GT(clicks, carts);   // engagement is a funnel
  EXPECT_GT(carts, orders);
}

TEST(GeneratorTest, MicroBehaviorSignalIsInformative) {
  // Oracle check: predicting "a neighbour of the deepest-engaged item"
  // should match the target far more often than popularity alone.
  // The oracle knows the generator's depth scoring; learned models have to
  // recover it from the operations — this test validates the signal exists.
  GeneratorConfig cfg = JdAppliancesConfig(0.1);
  auto sessions = GenerateSessions(cfg);
  int signal_hits = 0, total = 0;
  for (const auto& s : sessions) {
    // Recompute per-item depth as the generator does.
    std::vector<int64_t> items;
    std::vector<std::vector<int64_t>> ops;
    std::vector<MicroBehavior> input(s.events.begin(), s.events.end() - 1);
    // Identify the target: last distinct item.
    int64_t target = s.events.back().item;
    // Strip the target's trailing run.
    while (!input.empty() && input.back().item == target) input.pop_back();
    if (input.empty()) continue;
    MergeSuccessive(input, &items, &ops);
    double best_depth = -1;
    int64_t deepest = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      double depth = 0;
      for (int64_t op : ops[i]) {
        if (op == kJdAddToCart) depth += 3;
        if (op == kJdOrder) depth += 5;
        if (op == kJdReadComments) depth += 2;
        if (op == kJdReadDetail) depth += 1;
      }
      if (depth > best_depth) {
        best_depth = depth;
        deepest = items[i];
      }
    }
    ++total;
    // Hit if the target is the deepest item or an id-neighbour of it.
    if (std::abs(target - deepest) <= 3) ++signal_hits;
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(signal_hits) / total, 0.4);
}

TEST(GeneratorTest, SingleOpDatasetBuilds) {
  auto result = MakeDatasetSingleOp(JdAppliancesConfig(0.05), kJdClick);
  ASSERT_TRUE(result.ok());
  for (const auto& ex : result.value().train) {
    for (int64_t op : ex.flat_ops) EXPECT_EQ(op, kJdClick);
  }
}

TEST(GeneratorTest, ScaleGrowsSessionCount) {
  EXPECT_GT(JdAppliancesConfig(1.0).num_sessions,
            JdAppliancesConfig(0.1).num_sessions);
  EXPECT_GE(TrivagoConfig(0.0001).num_sessions, 200);  // floor
}

}  // namespace
}  // namespace embsr
