/**
 * @file
 * Quickstart: transpile the paper's working example (a malloc-built
 * binary tree with a recursive traversal) to HLS-C and print the
 * before/after programs plus the pipeline report.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "cir/printer.h"
#include "core/heterogen.h"
#include "support/strings.h"

using namespace heterogen;

namespace {

const char *kProgram = R"(
struct Node { int val; Node *left; Node *right; };
int total = 0;
Node *root = 0;
void insert(int v) {
    Node *fresh = (Node*)malloc(sizeof(Node));
    fresh->val = v;
    fresh->left = (Node*)0;
    fresh->right = (Node*)0;
    if (root == 0) { root = fresh; return; }
    Node *curr = root;
    while (1) {
        if (v < curr->val) {
            if (curr->left == 0) { curr->left = fresh; return; }
            curr = curr->left;
        } else {
            if (curr->right == 0) { curr->right = fresh; return; }
            curr = curr->right;
        }
    }
}
void traverse(Node *curr) {
    if (curr != 0) {
        int ret = curr->val;
        total = total + ret;
        traverse(curr->left);
        traverse(curr->right);
    }
}
int kernel(int vals[32], int n) {
    if (n < 0) { n = 0; }
    if (n > 32) { n = 32; }
    root = (Node*)0;
    total = 0;
    for (int i = 0; i < n; i++) { insert(vals[i]); }
    traverse(root);
    return total;
}
int host() {
    int vals[32];
    for (int i = 0; i < 32; i++) { vals[i] = (i * 41 + 5) % 83; }
    return kernel(vals, 32);
}
)";

} // namespace

int
main()
{
    std::printf("=== Original C program ===\n%s\n", kProgram);

    core::HeteroGen engine(kProgram);
    core::HeteroGenOptions options;
    options.kernel = "kernel";
    options.fuzz.host_function = "host";
    options.fuzz.max_executions = 1000;
    options.search.budget_minutes = 240;

    core::HeteroGenReport report = engine.run(options);

    std::printf("=== Generated HLS-C program ===\n%s\n",
                report.hls_source.c_str());
    std::printf("=== Pipeline report ===\n");
    std::printf("tests generated:     %zu (branch coverage %.0f%%)\n",
                report.testgen.suite.size(),
                100.0 * report.testgen.branchCoverage());
    std::printf("HLS compatible:      %s\n",
                report.ok() ? "yes" : "NO");
    std::printf("edits applied:       %s\n",
                join(report.search.applied_order, ", ").c_str());
    std::printf("lines edited:        %d (program grew %d -> %d)\n",
                report.search.diff.delta(), report.orig_loc,
                report.final_loc);
    std::printf("latency:             CPU %.4f ms -> FPGA %.4f ms "
                "(%s)\n",
                report.search.orig_cpu_ms, report.search.fpga_ms,
                report.search.improved ? "faster" : "slower");
    std::printf("simulated tool time: %.1f minutes\n",
                report.total_minutes);
    return report.ok() ? 0 : 1;
}
