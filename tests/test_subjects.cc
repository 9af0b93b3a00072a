/** @file Validation of the P1-P10 subjects and the forum corpus. */

#include <gtest/gtest.h>

#include <map>

#include "cir/parser.h"
#include "cir/printer.h"
#include "cir/sema.h"
#include "hls/synth_check.h"
#include "interp/interp.h"
#include "repair/localizer.h"
#include "subjects/forum_corpus.h"
#include "subjects/subjects.h"
#include "support/strings.h"

namespace heterogen::subjects {
namespace {

using hls::ErrorCategory;
using interp::KernelArg;

class SubjectTest : public ::testing::TestWithParam<const char *>
{
  protected:
    const Subject &subject() const { return subjectById(GetParam()); }
};

TEST_P(SubjectTest, OriginalParsesAndAnalyzes)
{
    const Subject &s = subject();
    auto tu = cir::parse(s.source);
    auto sema = cir::analyze(*tu);
    EXPECT_TRUE(sema.ok())
        << s.id << ": " << (sema.errors.empty()
                                ? ""
                                : sema.errors.front().message);
    EXPECT_NE(tu->findFunction(s.kernel), nullptr);
    if (!s.host.empty()) {
        EXPECT_NE(tu->findFunction(s.host), nullptr);
    }
}

TEST_P(SubjectTest, OriginalHasHlsErrors)
{
    const Subject &s = subject();
    auto tu = cir::parse(s.source);
    cir::analyzeOrDie(*tu);
    hls::HlsConfig config = hls::HlsConfig::forTop(
        s.top_function.empty() ? s.kernel : s.top_function);
    auto errors = hls::checkSynthesizability(*tu, config);
    EXPECT_FALSE(errors.empty())
        << s.id << " must be HLS-incompatible before repair";
}

TEST_P(SubjectTest, HostRunsCleanly)
{
    const Subject &s = subject();
    if (s.host.empty())
        GTEST_SKIP();
    auto tu = cir::parse(s.source);
    cir::analyzeOrDie(*tu);
    auto r = interp::runProgram(*tu, s.host, {});
    EXPECT_TRUE(r.ok) << s.id << ": " << r.trap;
}

TEST_P(SubjectTest, ManualPortIsHlsClean)
{
    const Subject &s = subject();
    auto tu = cir::parse(s.manual_source);
    auto sema = cir::analyze(*tu);
    ASSERT_TRUE(sema.ok())
        << s.id << ": " << (sema.errors.empty()
                                ? ""
                                : sema.errors.front().message);
    hls::HlsConfig config = hls::HlsConfig::forTop(s.kernel);
    auto errors = hls::checkSynthesizability(*tu, config);
    EXPECT_TRUE(errors.empty())
        << s.id << " manual port: " << errors.front().str();
}

TEST_P(SubjectTest, ExistingTestsRunOnOriginal)
{
    const Subject &s = subject();
    if (s.existing_tests.empty())
        GTEST_SKIP();
    auto tu = cir::parse(s.source);
    cir::analyzeOrDie(*tu);
    for (const auto &args : s.existing_tests) {
        auto r = interp::runProgram(*tu, s.kernel, args);
        EXPECT_TRUE(r.ok) << s.id << ": " << r.trap;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, SubjectTest,
                         ::testing::Values("P1", "P2", "P3", "P4", "P5",
                                           "P6", "P7", "P8", "P9",
                                           "P10"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(Subjects, TenSubjectsRegistered)
{
    EXPECT_EQ(allSubjects().size(), 10u);
    EXPECT_THROW(subjectById("P11"), FatalError);
}

TEST(Subjects, ErrorCategoryMixMatchesDesign)
{
    // Which categories each subject's initial errors cover; this pins
    // the suite to the paper's error-type design (e.g. P3/P8 are purely
    // dynamic-data so HeteroRefactor can handle exactly those two).
    std::map<std::string, std::set<ErrorCategory>> expected = {
        {"P1", {ErrorCategory::UnsupportedDataTypes}},
        {"P2", {ErrorCategory::UnsupportedDataTypes}},
        {"P3", {ErrorCategory::DynamicDataStructures,
                ErrorCategory::UnsupportedDataTypes}},
        {"P5", {ErrorCategory::DynamicDataStructures,
                ErrorCategory::UnsupportedDataTypes}},
        {"P6", {ErrorCategory::UnsupportedDataTypes}},
        {"P8", {ErrorCategory::DynamicDataStructures,
                ErrorCategory::UnsupportedDataTypes}},
        {"P10", {ErrorCategory::StructAndUnion}},
    };
    for (const auto &[id, categories] : expected) {
        const Subject &s = subjectById(id);
        auto tu = cir::parse(s.source);
        cir::analyzeOrDie(*tu);
        auto errors = hls::checkSynthesizability(
            *tu, hls::HlsConfig::forTop(s.kernel));
        std::set<ErrorCategory> seen;
        for (const auto &e : errors)
            seen.insert(e.category);
        EXPECT_EQ(seen, categories) << id;
    }
    // P9 additionally has struct and top-function errors.
    {
        const Subject &s = subjectById("P9");
        auto tu = cir::parse(s.source);
        cir::analyzeOrDie(*tu);
        auto errors = hls::checkSynthesizability(
            *tu, hls::HlsConfig::forTop(s.top_function));
        std::set<ErrorCategory> seen;
        for (const auto &e : errors)
            seen.insert(e.category);
        EXPECT_TRUE(seen.count(ErrorCategory::StructAndUnion)) << "P9";
        EXPECT_TRUE(seen.count(ErrorCategory::TopFunction)) << "P9";
    }
}

TEST(Subjects, PointerErrorsAreNotPureForP3P8Blockers)
{
    // P3 and P8's non-dynamic errors must all be pointer errors, which
    // the HeteroRefactor edit whitelist can also fix.
    for (const char *id : {"P3", "P8"}) {
        const Subject &s = subjectById(id);
        auto tu = cir::parse(s.source);
        cir::analyzeOrDie(*tu);
        auto errors = hls::checkSynthesizability(
            *tu, hls::HlsConfig::forTop(s.kernel));
        for (const auto &e : errors) {
            if (e.category == ErrorCategory::UnsupportedDataTypes) {
                EXPECT_NE(e.message.find("pointer"), std::string::npos)
                    << id << ": " << e.message;
            }
        }
    }
}

TEST(Subjects, ManualPortsPreserveBehaviorOnHostInputs)
{
    // Representative in-range inputs per subject; manual ports must
    // match the original's input-output behaviour on them.
    struct Case
    {
        const char *id;
        std::vector<KernelArg> args;
    };
    std::vector<Case> cases;
    cases.push_back({"P1",
                     {KernelArg::ofInt(120), KernelArg::ofInt(64),
                      KernelArg::ofInt(32)}});
    {
        std::vector<double> xs(64);
        for (int i = 0; i < 64; ++i)
            xs[i] = i * 0.5 - 1.0;
        cases.push_back({"P2", {KernelArg::ofFloats(xs),
                                KernelArg::ofInt(64)}});
    }
    {
        std::vector<long> data(256);
        for (int i = 0; i < 256; ++i)
            data[i] = (i * 7919 + 13) % 512 - 256;
        cases.push_back(
            {"P3", {KernelArg::ofInts(data), KernelArg::ofInt(100)}});
    }
    {
        std::vector<long> img(256);
        for (int i = 0; i < 256; ++i)
            img[i] = (i * 31 + 7) % 256;
        cases.push_back({"P4",
                         {KernelArg::ofInts(img),
                          KernelArg::ofInts(std::vector<long>(256, 0)),
                          KernelArg::ofInt(16), KernelArg::ofInt(16),
                          KernelArg::ofInt(128)}});
    }
    {
        std::vector<long> vals(64);
        for (int i = 0; i < 64; ++i)
            vals[i] = (i * 53 + 11) % 97;
        cases.push_back(
            {"P5", {KernelArg::ofInts(vals), KernelArg::ofInt(64)}});
    }
    {
        std::vector<long> a(16), b(16);
        for (int i = 0; i < 16; ++i) {
            a[i] = i - 8;
            b[i] = (i * 3) % 7;
        }
        cases.push_back({"P6",
                         {KernelArg::ofInts(a), KernelArg::ofInts(b),
                          KernelArg::ofInts(std::vector<long>(16, 0))}});
    }
    {
        std::vector<long> data(32);
        for (int i = 0; i < 32; ++i)
            data[i] = (97 - i * 13) % 41;
        cases.push_back({"P7",
                         {KernelArg::ofInts(data), KernelArg::ofInt(32),
                          KernelArg::ofInts({0, 0, 0, 0})}});
    }
    {
        std::vector<long> data(64);
        for (int i = 0; i < 64; ++i)
            data[i] = (i * 29 + 3) % 50;
        cases.push_back({"P8",
                         {KernelArg::ofInts(data), KernelArg::ofInt(48),
                          KernelArg::ofInts({0, 0, 0, 0})}});
    }
    {
        std::vector<long> img(256);
        for (int i = 0; i < 256; ++i)
            img[i] = (i * i + 3 * i) % 255;
        cases.push_back(
            {"P9",
             {KernelArg::ofInts(img), KernelArg::ofInt(16),
              KernelArg::ofInt(16), KernelArg::ofInts({1, 2, 3, 4}),
              KernelArg::ofInts({}),
              KernelArg::ofInts(std::vector<long>(8, 0))}});
    }
    {
        std::vector<long> glyph(16);
        for (int p = 0; p < 16; ++p)
            glyph[p] = ((5 * 131 + p * 17) % 32) - 16;
        cases.push_back({"P10", {KernelArg::ofInts(glyph)}});
    }
    for (const Case &c : cases) {
        const Subject &s = subjectById(c.id);
        auto orig = cir::parse(s.source);
        cir::analyzeOrDie(*orig);
        auto manual = cir::parse(s.manual_source);
        cir::analyzeOrDie(*manual);
        auto a = interp::runProgram(*orig, s.kernel, c.args);
        auto b = interp::runProgram(*manual, s.kernel, c.args);
        ASSERT_TRUE(a.ok) << c.id << " original: " << a.trap;
        ASSERT_TRUE(b.ok) << c.id << " manual: " << b.trap;
        EXPECT_TRUE(a.sameBehavior(b)) << c.id;
    }
}

TEST(Subjects, OriginalSizesRoughlyMatchPaper)
{
    // Table 5 origin LOC: within a loose factor so the suite stays
    // comparable in shape (biggest = P9, smallest = P1/P6).
    std::map<std::string, int> paper = {
        {"P1", 15}, {"P2", 24},  {"P3", 121}, {"P4", 285}, {"P5", 85},
        {"P6", 19}, {"P7", 50},  {"P8", 131}, {"P9", 465}, {"P10", 117},
    };
    int loc_p1 = 0, loc_p9 = 0;
    for (const Subject &s : allSubjects()) {
        auto tu = cir::parse(s.source);
        int loc = countLines(cir::print(*tu));
        EXPECT_GT(loc, paper[s.id] / 4) << s.id;
        EXPECT_LT(loc, paper[s.id] * 4) << s.id;
        if (s.id == "P1")
            loc_p1 = loc;
        if (s.id == "P9")
            loc_p9 = loc;
    }
    EXPECT_LT(loc_p1, loc_p9) << "size ordering preserved";
}

// --- forum corpus -----------------------------------------------------------------

TEST(ForumCorpus, GeneratesRequestedCount)
{
    auto posts = generateForumCorpus(1000);
    EXPECT_EQ(posts.size(), 1000u);
}

TEST(ForumCorpus, GroundTruthMatchesPaperShares)
{
    auto posts = generateForumCorpus(1000);
    std::map<ErrorCategory, int> counts;
    for (const auto &p : posts)
        counts[p.ground_truth] += 1;
    for (ErrorCategory c : hls::allCategories()) {
        double share = double(counts[c]) / posts.size();
        EXPECT_NEAR(share, paperCategoryShare(c), 0.01)
            << hls::categoryName(c);
    }
}

TEST(ForumCorpus, ClassifierAgreesWithGroundTruth)
{
    auto posts = generateForumCorpus(1000);
    int agree = 0;
    for (const auto &p : posts) {
        auto category = repair::classifyMessage(p.message);
        if (category && *category == p.ground_truth)
            agree += 1;
    }
    EXPECT_GT(double(agree) / posts.size(), 0.9)
        << "keyword classifier should recover most categories";
}

TEST(ForumCorpus, Deterministic)
{
    auto a = generateForumCorpus(200, 5);
    auto b = generateForumCorpus(200, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].message, b[i].message);
        EXPECT_EQ(a[i].ground_truth, b[i].ground_truth);
    }
}

} // namespace
} // namespace heterogen::subjects
