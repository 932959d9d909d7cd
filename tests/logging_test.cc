/**
 * @file
 * Unit tests for util/logging: threshold filtering, message formatting,
 * fatal(), and the JsonlTraceWriter warn-once path that rides on it.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "fl/round/trace_writer.h"
#include "util/logging.h"

namespace fedgpo {
namespace util {
namespace {

/** Capture std::cerr for the duration of one test body. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string text() const { return buffer_.str(); }

  private:
    std::ostringstream buffer_;
    std::streambuf *old_;
};

/** Restore the global log level after each test. */
class LoggingTest : public ::testing::Test
{
  protected:
    void SetUp() override { prev_ = logLevel(); }
    void TearDown() override { setLogLevel(prev_); }

  private:
    LogLevel prev_;
};

TEST_F(LoggingTest, DefaultsDropInfoAndDebug)
{
    setLogLevel(LogLevel::Warn);
    CerrCapture cap;
    logDebug("quiet-debug");
    logInfo("quiet-info");
    logWarn("loud-warn");
    EXPECT_EQ(cap.text().find("quiet-debug"), std::string::npos);
    EXPECT_EQ(cap.text().find("quiet-info"), std::string::npos);
    EXPECT_NE(cap.text().find("loud-warn"), std::string::npos);
}

TEST_F(LoggingTest, MessagesCarryLevelTag)
{
    setLogLevel(LogLevel::Debug);
    CerrCapture cap;
    logDebug("d-msg");
    logInfo("i-msg");
    logWarn("w-msg");
    logError("e-msg");
    const std::string text = cap.text();
    EXPECT_NE(text.find("d-msg"), std::string::npos);
    EXPECT_NE(text.find("i-msg"), std::string::npos);
    EXPECT_NE(text.find("w-msg"), std::string::npos);
    EXPECT_NE(text.find("e-msg"), std::string::npos);
    // The formatter brands every line with the library prefix.
    EXPECT_NE(text.find("fedgpo"), std::string::npos);
}

TEST_F(LoggingTest, OffSilencesEverything)
{
    setLogLevel(LogLevel::Off);
    CerrCapture cap;
    logDebug("a");
    logInfo("b");
    logWarn("c");
    logError("d");
    EXPECT_TRUE(cap.text().empty());
}

TEST_F(LoggingTest, ThresholdIsReadable)
{
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(logLevel(), LogLevel::Info);
    setLogLevel(LogLevel::Error);
    EXPECT_EQ(logLevel(), LogLevel::Error);
}

TEST_F(LoggingTest, FatalThrowsWithMessage)
{
    setLogLevel(LogLevel::Off); // the throw must not depend on the level
    try {
        fatal("bad config value");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad config value"),
                  std::string::npos);
    }
}

TEST_F(LoggingTest, TraceWriterWarnsOnceOnUnopenablePath)
{
    setLogLevel(LogLevel::Warn);
    CerrCapture cap;
    // A directory that does not exist: the open fails, the writer keeps
    // running, and exactly one warning names the path.
    fl::round::JsonlTraceWriter writer(
        "/nonexistent-dir-for-logging-test/trace.jsonl");
    EXPECT_FALSE(writer.ok());

    // Writing rounds through the broken writer must neither crash nor
    // warn again.
    fl::round::RoundContext ctx;
    ctx.result.round = 1;
    writer.onRoundEnd(ctx);
    ctx.result.round = 2;
    writer.onRoundEnd(ctx);

    const std::string text = cap.text();
    const auto first = text.find("trace.jsonl");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("trace.jsonl", first + 1), std::string::npos)
        << "warning repeated:\n"
        << text;
}

} // namespace
} // namespace util
} // namespace fedgpo
