/**
 * @file
 * Tests for sim::json, the one JSON reader and writer: the pmsimd wire
 * frames and the benches' BENCH_*.json files. The suite keeps the name
 * it had when the code lived in src/svc.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/json.hh"

namespace {

using namespace pm;

TEST(SvcJson, ParsesAndDumpsRoundTrip)
{
    sim::json::Value v;
    std::string err;
    ASSERT_TRUE(sim::json::parse(
        R"({"b":true,"n":-3.5,"s":"a\nb","arr":[1,2],"o":{"k":"v"}})", v,
        err))
        << err;
    EXPECT_TRUE(v.isObj());
    EXPECT_TRUE(v.find("b")->boolean);
    EXPECT_EQ(v.num("n"), -3.5);
    EXPECT_EQ(v.str("s"), "a\nb");
    EXPECT_EQ(v.find("arr")->array.size(), 2u);
    // Dump is canonical (sorted keys, no whitespace) and re-parses.
    const std::string text = sim::json::dump(v);
    sim::json::Value v2;
    ASSERT_TRUE(sim::json::parse(text, v2, err)) << err;
    EXPECT_EQ(sim::json::dump(v2), text);
}

TEST(SvcJson, IntegersDumpWithoutExponent)
{
    sim::json::Value v = sim::json::Value::makeNum(1234567.0);
    EXPECT_EQ(sim::json::dump(v), "1234567");
}

TEST(SvcJson, EscapesRoundTrip)
{
    sim::json::Value v = sim::json::Value::makeStr("tab\there \"q\" \x01");
    sim::json::Value back;
    std::string err;
    ASSERT_TRUE(sim::json::parse(sim::json::dump(v), back, err)) << err;
    EXPECT_EQ(back.string, v.string);
}

TEST(SvcJson, SurrogatePairsDecodeToUtf8)
{
    sim::json::Value v;
    std::string err;
    ASSERT_TRUE(sim::json::parse(R"("😀")", v, err)) << err;
    EXPECT_EQ(v.string, "\xf0\x9f\x98\x80"); // U+1F600
    EXPECT_FALSE(sim::json::parse(R"("\ud83d")", v, err));
}

TEST(SvcJson, RejectsHostileInput)
{
    sim::json::Value v;
    std::string err;
    // A depth bomb must be rejected, not followed off the stack.
    std::string bomb(1000, '[');
    EXPECT_FALSE(sim::json::parse(bomb, v, err));
    EXPECT_NE(err.find("deep"), std::string::npos);
    EXPECT_FALSE(sim::json::parse("{} trailing", v, err));
    EXPECT_FALSE(sim::json::parse("{\"a\":}", v, err));
    EXPECT_FALSE(sim::json::parse("", v, err));
    // Errors carry a byte offset for the sender's benefit.
    EXPECT_FALSE(sim::json::parse("[1,2,xyz]", v, err));
    EXPECT_NE(err.find("at byte"), std::string::npos);
}

TEST(SvcJson, NumbersRoundTripBitExact)
{
    for (const double x : {85.7, 2.746, 1e-6, 0.1 + 0.2, 9007199254740994.0,
                           -3.5, 1e300, 5e-324}) {
        const std::string text = sim::json::dump(sim::json::Value::makeNum(x));
        sim::json::Value back;
        std::string err;
        ASSERT_TRUE(sim::json::parse(text, back, err)) << text << ": " << err;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.number),
                  std::bit_cast<std::uint64_t>(x))
            << text;
    }
    // Shortest digits, never an exponent.
    EXPECT_EQ(sim::json::dump(sim::json::Value::makeNum(85.7)), "85.7");
    EXPECT_EQ(sim::json::dump(sim::json::Value::makeNum(1e-6)), "0.000001");
    EXPECT_EQ(sim::json::dump(sim::json::Value::makeNum(100000.0)), "100000");
}

TEST(SvcJson, WriteFileRoundTrips)
{
    sim::json::Value v = sim::json::Value::makeObj();
    v.set("mbps", sim::json::Value::makeNum(85.7))
        .set("name", sim::json::Value::makeStr("fig12"))
        .set("rows", sim::json::Value::makeArr());
    const std::string path =
        ::testing::TempDir() + "pm_json_test_write_file.json";
    ASSERT_TRUE(sim::json::writeFile(path, v));
    std::ostringstream read;
    read << std::ifstream(path).rdbuf();
    std::remove(path.c_str());
    const std::string text = read.str();
    EXPECT_EQ(text, sim::json::dump(v) + "\n");
    sim::json::Value back;
    std::string err;
    ASSERT_TRUE(sim::json::parse(text, back, err)) << err;
    EXPECT_EQ(sim::json::dump(back), sim::json::dump(v));
    EXPECT_FALSE(sim::json::writeFile("/nonexistent-dir/x.json", v));
}

} // namespace
