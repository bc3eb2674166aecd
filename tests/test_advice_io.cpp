#include "oracle/advice_io.h"

#include <gtest/gtest.h>

#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

TEST(AdviceIo, RoundTripSimple) {
  std::vector<BitString> advice(4);
  advice[0] = BitString::from_string("101");
  advice[3] = BitString::from_string("1");
  const auto back = advice_from_text(advice_to_text(advice));
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0], advice[0]);
  EXPECT_TRUE(back[1].empty());
  EXPECT_TRUE(back[2].empty());
  EXPECT_EQ(back[3], advice[3]);
}

TEST(AdviceIo, RoundTripRealOracles) {
  Rng rng(91);
  const PortGraph g = make_random_connected(40, 0.2, rng);
  for (const auto& advice :
       {TreeWakeupOracle().advise(g, 0), LightBroadcastOracle().advise(g, 0)}) {
    const auto back = advice_from_text(advice_to_text(advice));
    ASSERT_EQ(back.size(), advice.size());
    for (std::size_t v = 0; v < advice.size(); ++v) {
      EXPECT_EQ(back[v], advice[v]) << v;
    }
  }
}

TEST(AdviceIo, CommentsAndBlanks) {
  const auto advice = advice_from_text(
      "# header comment\nadvice 3\n\n1 11  # node one\n");
  ASSERT_EQ(advice.size(), 3u);
  EXPECT_EQ(advice[1].to_string(), "11");
}

TEST(AdviceIo, Rejections) {
  EXPECT_THROW(advice_from_text("1 01\n"), std::invalid_argument);  // no header
  EXPECT_THROW(advice_from_text("advice 2\nadvice 2\n"),
               std::invalid_argument);
  EXPECT_THROW(advice_from_text("advice 2\n5 01\n"), std::invalid_argument);
  EXPECT_THROW(advice_from_text("advice 2\n0 01x\n"), std::invalid_argument);
  EXPECT_THROW(advice_from_text("advice 2\n0\n"), std::invalid_argument);
  EXPECT_THROW(advice_from_text("advice 2\n0 01\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(advice_from_text("advice 2\n0 01 junk\n"),
               std::invalid_argument);
  EXPECT_THROW(advice_from_text("advice 2\n+1 01\n"), std::invalid_argument);
  // Header counts are digits only and at most ParseLimits::max_nodes,
  // checked before the advice vector is sized: `advice 4000000000` would
  // ask for 128 GB.
  for (const char* text : {"advice -1\n", "advice 18446744073709551615\n",
                           "advice +3\n", "advice 4000000000\n"}) {
    try {
      advice_from_text(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 1: "), std::string::npos)
          << e.what();
    }
  }
}

TEST(AdviceIo, ErrorsCarryLineNumbers) {
  try {
    advice_from_text("advice 2\n\nbogus 01\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(AdviceIo, EmptyAdviceVector) {
  const auto advice = advice_from_text("advice 0\n");
  EXPECT_TRUE(advice.empty());
}

}  // namespace
}  // namespace oraclesize
