/**
 * @file
 * Figure 3 — HLS compatibility error types in the Xilinx-forum study:
 * runs HeteroGen's keyword classifier (the repair localizer) over a
 * 1,000-post synthetic corpus generated at the paper's category mix and
 * prints the resulting pie-chart proportions.
 *
 * Expected shape (paper): Unsupported Data Types 25.7%, Top Function
 * 19.8%, Dataflow Optimization 16.1%, Loop Parallelization 16.1%,
 * Struct and Union 14.1%, Dynamic Data Structures 8.2%.
 */

#include <cstdio>
#include <map>

#include "bench/common.h"
#include "repair/localizer.h"
#include "subjects/forum_corpus.h"

using namespace heterogen;
using hls::ErrorCategory;

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    const int kPosts = 1000;
    auto posts = subjects::generateForumCorpus(kPosts);

    std::map<ErrorCategory, int> classified;
    int unclassified = 0;
    int agree = 0;
    for (const auto &post : posts) {
        auto category = repair::classifyMessage(post.message);
        if (!category) {
            ++unclassified;
            continue;
        }
        classified[*category] += 1;
        if (*category == post.ground_truth)
            ++agree;
    }

    std::printf("Figure 3: HLS compatibility error types in %d forum "
                "posts (classifier output)\n",
                kPosts);
    std::printf("%-26s %10s %10s %10s\n", "Category", "Classified",
                "Share", "Paper");
    for (ErrorCategory c : hls::allCategories()) {
        std::printf("%-26s %10d %9.1f%% %9.1f%%\n",
                    hls::categoryName(c).c_str(), classified[c],
                    100.0 * classified[c] / kPosts,
                    100.0 * subjects::paperCategoryShare(c));
    }
    std::printf("\nclassifier agreement with ground truth: %.1f%% "
                "(%d unclassified)\n",
                100.0 * agree / kPosts, unclassified);
    return 0;
}
