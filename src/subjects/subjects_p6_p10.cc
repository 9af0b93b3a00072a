/** @file Subjects P6-P10: matrix multiplication, bubble sort, linked
 * list, face detection, digit recognition. */

#include "subjects/subjects_detail.h"

namespace heterogen::subjects {

using interp::KernelArg;

namespace detail {

Subject
makeP6()
{
    Subject s;
    s.id = "P6";
    s.name = "matrix multiplication";
    s.kernel = "kernel";
    s.host = "host";
    s.fuzz_seed = 106;
    // Classic 4x4 matmul whose long double accumulator is not
    // synthesizable (unsupported data type).
    s.source = R"(
void kernel(int a[16], int b[16], int c[16]) {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
            long double acc = 0.0L;
            for (int k = 0; k < 4; k++) {
                acc = acc + a[i * 4 + k] * b[k * 4 + j];
            }
            c[i * 4 + j] = acc;
        }
    }
}
int host() {
    int a[16];
    int b[16];
    int c[16];
    for (int i = 0; i < 16; i++) {
        a[i] = i - 8;
        b[i] = (i * 3) % 7;
        c[i] = 0;
    }
    kernel(a, b, c);
    return c[5];
}
)";
    s.manual_source = R"(
void kernel(int a[16], int b[16], int c[16]) {
    #pragma HLS array_partition variable=a factor=4
    #pragma HLS array_partition variable=b factor=4
    for (int i = 0; i < 4; i++) {
        #pragma HLS pipeline II=1
        for (int j = 0; j < 4; j++) {
            #pragma HLS pipeline II=1
            fpga_float<8,52> acc = 0.0;
            for (int k = 0; k < 4; k++) {
                #pragma HLS unroll factor=4
                acc = acc + (fpga_float<8,52>)(a[i * 4 + k] * b[k * 4 + j]);
            }
            c[i * 4 + j] = acc;
        }
    }
}
)";
    for (int t = 0; t < 4; ++t) {
        std::vector<long> a(16, t), b(16, 1), c(16, 0);
        s.existing_tests.push_back({KernelArg::ofInts(a),
                                    KernelArg::ofInts(b),
                                    KernelArg::ofInts(c)});
    }
    return s;
}

Subject
makeP7()
{
    Subject s;
    s.id = "P7";
    s.name = "bubble sort";
    s.kernel = "kernel";
    s.host = "host";
    s.fuzz_seed = 107;
    s.source = R"(
int pass_count = 0;
void kernel(int a[], int n, int stats[]) {
    if (n < 0) { n = 0; }
    if (n > 32) { n = 32; }
    pass_count = 0;
    int swapped = 1;
    while (swapped == 1) {
        swapped = 0;
        pass_count = pass_count + 1;
        for (int j = 0; j + 1 < n; j++) {
            if (a[j] > a[j + 1]) {
                int t = a[j];
                a[j] = a[j + 1];
                a[j + 1] = t;
                swapped = 1;
            }
        }
        if (pass_count > n + 1) {
            swapped = 0;
        }
    }
    int lo = a[0];
    int hi = a[0];
    int acc = 0;
    for (int i = 0; i < n; i++) {
        if (a[i] < lo) { lo = a[i]; }
        if (a[i] > hi) { hi = a[i]; }
        acc = acc + a[i];
    }
    stats[0] = lo;
    stats[1] = hi;
    stats[2] = acc;
    stats[3] = pass_count;
}
int host() {
    int data[32];
    int stats[4];
    for (int i = 0; i < 32; i++) {
        data[i] = (97 - i * 13) % 41;
        if (i < 4) { stats[i] = 0; }
    }
    kernel(data, 32, stats);
    return stats[2];
}
)";
    s.manual_source = R"(
int pass_count = 0;
void kernel(int a[32], int n, int stats[4]) {
    if (n < 0) { n = 0; }
    if (n > 32) { n = 32; }
    pass_count = 0;
    int swapped = 1;
    while (swapped == 1) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=33
        swapped = 0;
        pass_count = pass_count + 1;
        for (int j = 0; j + 1 < n; j++) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=31
            if (a[j] > a[j + 1]) {
                int t = a[j];
                a[j] = a[j + 1];
                a[j + 1] = t;
                swapped = 1;
            }
        }
        if (pass_count > n + 1) {
            swapped = 0;
        }
    }
    int lo = a[0];
    int hi = a[0];
    int acc = 0;
    for (int i = 0; i < n; i++) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=32
        if (a[i] < lo) { lo = a[i]; }
        if (a[i] > hi) { hi = a[i]; }
        acc = acc + a[i];
    }
    stats[0] = lo;
    stats[1] = hi;
    stats[2] = acc;
    stats[3] = pass_count;
}
)";
    return s;
}

Subject
makeP8()
{
    Subject s;
    s.id = "P8";
    s.name = "linked list";
    s.kernel = "kernel";
    s.host = "host";
    s.fuzz_seed = 108;
    // List workload exercising malloc, free and pointer chasing only —
    // the error mix HeteroRefactor's dynamic-data support also handles.
    s.source = R"(
struct Node {
    int val;
    Node *next;
};
Node *push_front(Node *head, int v) {
    Node *fresh = (Node*)malloc(sizeof(Node));
    fresh->val = v;
    fresh->next = head;
    return fresh;
}
Node *reverse(Node *head) {
    Node *prev = (Node*)0;
    Node *curr = head;
    while (curr != 0) {
        Node *next = curr->next;
        curr->next = prev;
        prev = curr;
        curr = next;
    }
    return prev;
}
int list_sum(Node *head) {
    int acc = 0;
    Node *curr = head;
    while (curr != 0) {
        acc = acc + curr->val;
        curr = curr->next;
    }
    return acc;
}
int list_max(Node *head) {
    if (head == 0) { return 0; }
    int best = head->val;
    Node *curr = head->next;
    while (curr != 0) {
        if (curr->val > best) { best = curr->val; }
        curr = curr->next;
    }
    return best;
}
Node *remove_value(Node *head, int v) {
    while (head != 0 && head->val == v) {
        Node *dead = head;
        head = head->next;
        free(dead);
    }
    Node *curr = head;
    while (curr != 0 && curr->next != 0) {
        if (curr->next->val == v) {
            Node *dead = curr->next;
            curr->next = dead->next;
            free(dead);
        } else {
            curr = curr->next;
        }
    }
    return head;
}
int list_len(Node *head) {
    int n = 0;
    Node *curr = head;
    while (curr != 0) {
        n = n + 1;
        curr = curr->next;
    }
    return n;
}
void kernel(int data[64], int n, int out[4]) {
    if (n < 0) { n = 0; }
    if (n > 64) { n = 64; }
    Node *head = (Node*)0;
    for (int i = 0; i < n; i++) {
        head = push_front(head, data[i]);
    }
    head = reverse(head);
    out[0] = list_sum(head);
    out[1] = list_max(head);
    head = remove_value(head, data[0]);
    out[2] = list_len(head);
    out[3] = list_sum(head);
}
int host() {
    int data[64];
    int out[4];
    for (int i = 0; i < 64; i++) {
        data[i] = (i * 29 + 3) % 50;
    }
    for (int i = 0; i < 4; i++) { out[i] = 0; }
    kernel(data, 48, out);
    return out[0];
}
)";
    s.manual_source = R"(
int pool_val[2048];
int pool_next[2048];
int pool_top = 1;
int node_alloc(int v, int next) {
    int idx = 0;
    if (pool_top < 2048) {
        idx = pool_top;
        pool_top = pool_top + 1;
        pool_val[idx] = v;
        pool_next[idx] = next;
    }
    return idx;
}
int reverse(int head) {
    int prev = 0;
    int curr = head;
    while (curr != 0) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        int next = pool_next[curr];
        pool_next[curr] = prev;
        prev = curr;
        curr = next;
    }
    return prev;
}
int list_sum(int head) {
    int acc = 0;
    int curr = head;
    while (curr != 0) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        acc = acc + pool_val[curr];
        curr = pool_next[curr];
    }
    return acc;
}
int list_max(int head) {
    if (head == 0) { return 0; }
    int best = pool_val[head];
    int curr = pool_next[head];
    while (curr != 0) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        if (pool_val[curr] > best) { best = pool_val[curr]; }
        curr = pool_next[curr];
    }
    return best;
}
int remove_value(int head, int v) {
    while (head != 0 && pool_val[head] == v) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        head = pool_next[head];
    }
    int curr = head;
    while (curr != 0 && pool_next[curr] != 0) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        if (pool_val[pool_next[curr]] == v) {
            pool_next[curr] = pool_next[pool_next[curr]];
        } else {
            curr = pool_next[curr];
        }
    }
    return head;
}
int list_len(int head) {
    int n = 0;
    int curr = head;
    while (curr != 0) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        n = n + 1;
        curr = pool_next[curr];
    }
    return n;
}
void kernel(int data[64], int n, int out[4]) {
    if (n < 0) { n = 0; }
    if (n > 64) { n = 64; }
    pool_top = 1;
    int head = 0;
    for (int i = 0; i < n; i++) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=64
        head = node_alloc(data[i], head);
    }
    head = reverse(head);
    out[0] = list_sum(head);
    out[1] = list_max(head);
    head = remove_value(head, data[0]);
    out[2] = list_len(head);
    out[3] = list_sum(head);
}
)";
    return s;
}

Subject
makeP9()
{
    Subject s;
    s.id = "P9";
    s.name = "face detection";
    s.kernel = "fd_kernel";
    s.host = "host";
    // Misconfigured module entry point: the design's top is fd_kernel
    // but the project is configured with a stale name (Top Function
    // error, the paper's post no. 810885).
    s.top_function = "fd_top_v1";
    s.fuzz_seed = 109;
    // A Viola-Jones-flavoured cascade on 16x16 frames: integral image,
    // streamed window pipeline built from struct stages (unsynthesizable
    // without explicit constructors / static connecting streams), and a
    // three-stage classifier cascade over learned-looking tables.
    s.source = R"(
int integral[289];
int stage_hits[3];
int weak_weight[48];
int weak_thresh[48];
void init_model() {
    for (int i = 0; i < 48; i++) {
        weak_weight[i] = (i * 2654435 + 101) % 19 - 9;
        weak_thresh[i] = (i * 40503 + 7) % 900;
    }
    for (int i = 0; i < 3; i++) {
        stage_hits[i] = 0;
    }
}
void compute_integral(int img[256], int w, int h) {
    for (int i = 0; i < 289; i++) {
        integral[i] = 0;
    }
    for (int y = 1; y <= h; y++) {
        for (int x = 1; x <= w; x++) {
            int pixel = img[(y - 1) * 16 + (x - 1)];
            integral[y * 17 + x] = pixel
                + integral[(y - 1) * 17 + x]
                + integral[y * 17 + (x - 1)]
                - integral[(y - 1) * 17 + (x - 1)];
        }
    }
}
int window_sum(int x0, int y0, int x1, int y1) {
    return integral[y1 * 17 + x1]
        - integral[y0 * 17 + x1]
        - integral[y1 * 17 + x0]
        + integral[y0 * 17 + x0];
}
int weak_classify(int f, int x, int y, int size) {
    int half = size / 2;
    int top = window_sum(x, y, x + size, y + half);
    int bottom = window_sum(x, y + half, x + size, y + size);
    int feature = top - bottom;
    int score = 0;
    if (feature * weak_weight[f] > weak_thresh[f]) {
        score = 1;
    }
    return score;
}
int run_stage(int stage, int x, int y, int size) {
    int votes = 0;
    for (int f = 0; f < 16; f++) {
        votes = votes + weak_classify(stage * 16 + f, x, y, size);
    }
    int pass = 0;
    if (votes >= 4 + stage * 2) {
        pass = 1;
        stage_hits[stage] = stage_hits[stage] + 1;
    }
    return pass;
}
int norm_img[256];
int window_var[64];
void normalize_frame(int img[256], int w, int h) {
    int total = 0;
    int count = w * h;
    for (int y = 0; y < h; y++) {
        for (int x = 0; x < w; x++) {
            total = total + img[y * 16 + x];
        }
    }
    int mean = total / count;
    for (int y = 0; y < h; y++) {
        for (int x = 0; x < w; x++) {
            int v = img[y * 16 + x] - mean + 128;
            if (v < 0) { v = 0; }
            if (v > 255) { v = 255; }
            norm_img[y * 16 + x] = v;
        }
    }
}
void window_variance(int w, int h) {
    for (int i = 0; i < 64; i++) {
        window_var[i] = 0;
    }
    int slot = 0;
    for (int y = 0; y + 8 <= h; y = y + 2) {
        for (int x = 0; x + 8 <= w; x = x + 2) {
            int area = window_sum(x, y, x + 8, y + 8);
            int mean = area / 64;
            int spread = window_sum(x, y, x + 4, y + 4)
                - window_sum(x + 4, y + 4, x + 8, y + 8);
            if (spread < 0) { spread = -spread; }
            if (slot < 64) {
                window_var[slot] = mean + spread;
                slot = slot + 1;
            }
        }
    }
}
struct WinFeed {
    hls::stream<int> &in;
    hls::stream<int> &out;
    int pump() {
        int moved = 0;
        while (!in.empty()) {
            int v = in.read();
            out.write(v * 2 + 1);
            moved = moved + 1;
        }
        return moved;
    }
};
void feed_pipeline(hls::stream<int> &raw, hls::stream<int> &cooked) {
    #pragma HLS dataflow
    hls::stream<int> tmp;
    WinFeed{ raw, tmp }.pump();
    WinFeed{ tmp, cooked }.pump();
}
int detect(int w, int h) {
    int found = 0;
    int size = 8;
    while (size <= h && size <= w) {
        for (int y = 0; y + size <= h; y = y + 2) {
            for (int x = 0; x + size <= w; x = x + 2) {
                int alive = 1;
                for (int stage = 0; stage < 3; stage++) {
                    if (alive == 1) {
                        if (run_stage(stage, x, y, size) == 0) {
                            alive = 0;
                        }
                    }
                }
                if (alive == 1) {
                    found = found + 1;
                }
            }
        }
        size = size * 2;
    }
    return found;
}
void fd_kernel(int img[256], int w, int h,
               hls::stream<int> &raw, hls::stream<int> &cooked,
               int out[8]) {
    if (w < 1) { w = 1; }
    if (w > 16) { w = 16; }
    if (h < 1) { h = 1; }
    if (h > 16) { h = 16; }
    init_model();
    normalize_frame(img, w, h);
    compute_integral(norm_img, w, h);
    window_variance(w, h);
    feed_pipeline(raw, cooked);
    int found = detect(w, h);
    out[0] = found;
    out[1] = stage_hits[0];
    out[2] = stage_hits[1];
    out[3] = stage_hits[2];
    out[4] = window_sum(0, 0, w, h);
    out[5] = window_var[0];
    out[6] = window_var[5];
    out[7] = found * 2 + 1;
}
int host() {
    int img[256];
    int out[8];
    for (int i = 0; i < 256; i++) {
        img[i] = (i * i + 3 * i) % 255;
    }
    for (int i = 0; i < 8; i++) { out[i] = 0; }
    int raw[4];
    raw[0] = 1;
    raw[1] = 2;
    raw[2] = 3;
    raw[3] = 4;
    hls::stream<int> s_raw;
    hls::stream<int> s_cooked;
    for (int i = 0; i < 4; i++) { s_raw.write(raw[i]); }
    fd_kernel(img, 16, 16, s_raw, s_cooked, out);
    return out[0];
}
)";
    s.manual_source = R"(
int integral[289];
int stage_hits[3];
int weak_weight[48];
int weak_thresh[48];
void init_model() {
    for (int i = 0; i < 48; i++) {
        #pragma HLS pipeline II=1
        weak_weight[i] = (i * 2654435 + 101) % 19 - 9;
        weak_thresh[i] = (i * 40503 + 7) % 900;
    }
    for (int i = 0; i < 3; i++) {
        stage_hits[i] = 0;
    }
}
void compute_integral(int img[256], int w, int h) {
    for (int i = 0; i < 289; i++) {
        #pragma HLS pipeline II=1
        integral[i] = 0;
    }
    for (int y = 1; y <= h; y++) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=16
        for (int x = 1; x <= w; x++) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=16
            int pixel = img[(y - 1) * 16 + (x - 1)];
            integral[y * 17 + x] = pixel
                + integral[(y - 1) * 17 + x]
                + integral[y * 17 + (x - 1)]
                - integral[(y - 1) * 17 + (x - 1)];
        }
    }
}
int window_sum(int x0, int y0, int x1, int y1) {
    return integral[y1 * 17 + x1]
        - integral[y0 * 17 + x1]
        - integral[y1 * 17 + x0]
        + integral[y0 * 17 + x0];
}
int weak_classify(int f, int x, int y, int size) {
    int half = size / 2;
    int top = window_sum(x, y, x + size, y + half);
    int bottom = window_sum(x, y + half, x + size, y + size);
    int feature = top - bottom;
    int score = 0;
    if (feature * weak_weight[f] > weak_thresh[f]) {
        score = 1;
    }
    return score;
}
int run_stage(int stage, int x, int y, int size) {
    int votes = 0;
    for (int f = 0; f < 16; f++) {
        #pragma HLS pipeline II=1
        votes = votes + weak_classify(stage * 16 + f, x, y, size);
    }
    int pass = 0;
    if (votes >= 4 + stage * 2) {
        pass = 1;
        stage_hits[stage] = stage_hits[stage] + 1;
    }
    return pass;
}
int norm_img[256];
int window_var[64];
void normalize_frame(int img[256], int w, int h) {
    int total = 0;
    int count = w * h;
    for (int y = 0; y < h; y++) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=16
        for (int x = 0; x < w; x++) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=16
            total = total + img[y * 16 + x];
        }
    }
    int mean = total / count;
    for (int y = 0; y < h; y++) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=16
        for (int x = 0; x < w; x++) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=16
            int v = img[y * 16 + x] - mean + 128;
            if (v < 0) { v = 0; }
            if (v > 255) { v = 255; }
            norm_img[y * 16 + x] = v;
        }
    }
}
void window_variance(int w, int h) {
    for (int i = 0; i < 64; i++) {
        #pragma HLS pipeline II=1
        window_var[i] = 0;
    }
    int slot = 0;
    for (int y = 0; y + 8 <= h; y = y + 2) {
        #pragma HLS loop_tripcount max=8
        for (int x = 0; x + 8 <= w; x = x + 2) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=8
            int area = window_sum(x, y, x + 8, y + 8);
            int mean = area / 64;
            int spread = window_sum(x, y, x + 4, y + 4)
                - window_sum(x + 4, y + 4, x + 8, y + 8);
            if (spread < 0) { spread = -spread; }
            if (slot < 64) {
                window_var[slot] = mean + spread;
                slot = slot + 1;
            }
        }
    }
}
struct WinFeed {
    hls::stream<int> &in;
    hls::stream<int> &out;
    WinFeed(hls::stream<int> &in_i, hls::stream<int> &out_i)
        : in(in_i), out(out_i) {}
    int pump() {
        int moved = 0;
        while (!in.empty()) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=64
            int v = in.read();
            out.write(v * 2 + 1);
            moved = moved + 1;
        }
        return moved;
    }
};
void feed_pipeline(hls::stream<int> &raw, hls::stream<int> &cooked) {
    #pragma HLS dataflow
    static hls::stream<int> tmp;
    WinFeed{ raw, tmp }.pump();
    WinFeed{ tmp, cooked }.pump();
}
int detect(int w, int h) {
    int found = 0;
    int size = 8;
    while (size <= h && size <= w) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount max=2
        for (int y = 0; y + size <= h; y = y + 2) {
            #pragma HLS pipeline II=1
            #pragma HLS loop_tripcount max=8
            for (int x = 0; x + size <= w; x = x + 2) {
                #pragma HLS pipeline II=1
                #pragma HLS loop_tripcount max=8
                int alive = 1;
                for (int stage = 0; stage < 3; stage++) {
                    #pragma HLS pipeline II=1
                    if (alive == 1) {
                        if (run_stage(stage, x, y, size) == 0) {
                            alive = 0;
                        }
                    }
                }
                if (alive == 1) {
                    found = found + 1;
                }
            }
        }
        size = size * 2;
    }
    return found;
}
void fd_kernel(int img[256], int w, int h,
               hls::stream<int> &raw, hls::stream<int> &cooked,
               int out[8]) {
    if (w < 1) { w = 1; }
    if (w > 16) { w = 16; }
    if (h < 1) { h = 1; }
    if (h > 16) { h = 16; }
    init_model();
    normalize_frame(img, w, h);
    compute_integral(norm_img, w, h);
    window_variance(w, h);
    feed_pipeline(raw, cooked);
    int found = detect(w, h);
    out[0] = found;
    out[1] = stage_hits[0];
    out[2] = stage_hits[1];
    out[3] = stage_hits[2];
    out[4] = window_sum(0, 0, w, h);
    out[5] = window_var[0];
    out[6] = window_var[5];
    out[7] = found * 2 + 1;
}
)";
    // One handcrafted smoke test (Table 4: a single test, 15%).
    {
        std::vector<long> img(256, 10);
        std::vector<long> raw{1};
        s.existing_tests.push_back(
            {KernelArg::ofInts(img), KernelArg::ofInt(8),
             KernelArg::ofInt(8), KernelArg::ofInts(raw),
             KernelArg::ofInts({}), KernelArg::ofInts({0, 0, 0, 0, 0, 0,
                                                       0, 0})});
    }
    return s;
}

Subject
makeP10()
{
    Subject s;
    s.id = "P10";
    s.name = "digit recognition";
    s.kernel = "kernel";
    s.host = "host";
    s.fuzz_seed = 110;
    // Nearest-template digit recognition over 16-pixel glyph rows; the
    // distance accumulator is packed through a union, which HLS cannot
    // synthesize.
    s.source = R"(
union Acc {
    int dist;
    int votes;
};
int templates[160];
void init_templates() {
    for (int d = 0; d < 10; d++) {
        for (int p = 0; p < 16; p++) {
            templates[d * 16 + p] = ((d * 131 + p * 17) % 32) - 16;
        }
    }
}
int distance(int glyph[16], int d) {
    union Acc acc;
    acc.dist = 0;
    for (int p = 0; p < 16; p++) {
        int delta = glyph[p] - templates[d * 16 + p];
        if (delta < 0) { delta = -delta; }
        acc.dist = acc.dist + delta;
    }
    return acc.dist;
}
int weighted_distance(int glyph[16], int d) {
    union Acc acc;
    acc.dist = 0;
    for (int p = 0; p < 16; p++) {
        int delta = glyph[p] - templates[d * 16 + p];
        if (delta < 0) { delta = -delta; }
        int weight = 1;
        if (p >= 4 && p < 12) { weight = 2; }
        acc.dist = acc.dist + delta * weight;
    }
    return acc.dist;
}
int votes_for[10];
int kernel(int glyph[16]) {
    init_templates();
    for (int d = 0; d < 10; d++) {
        votes_for[d] = 0;
    }
    int best_d = 0;
    int best = distance(glyph, 0);
    for (int d = 1; d < 10; d++) {
        int dist = distance(glyph, d);
        if (dist < best) {
            best = dist;
            best_d = d;
        }
    }
    votes_for[best_d] = votes_for[best_d] + 2;
    int wbest_d = 0;
    int wbest = weighted_distance(glyph, 0);
    for (int d = 1; d < 10; d++) {
        int dist = weighted_distance(glyph, d);
        if (dist < wbest) {
            wbest = dist;
            wbest_d = d;
        }
    }
    votes_for[wbest_d] = votes_for[wbest_d] + 1;
    int winner = 0;
    for (int d = 1; d < 10; d++) {
        if (votes_for[d] > votes_for[winner]) { winner = d; }
    }
    union Acc tally;
    tally.votes = winner * 100 + best % 100;
    return tally.votes;
}
int host() {
    int glyph[16];
    for (int p = 0; p < 16; p++) {
        glyph[p] = ((3 * 131 + p * 17) % 32) - 16;
    }
    return kernel(glyph);
}
)";
    s.manual_source = R"(
int templates[160];
void init_templates() {
    for (int d = 0; d < 10; d++) {
        #pragma HLS pipeline II=1
        for (int p = 0; p < 16; p++) {
            #pragma HLS pipeline II=1
            templates[d * 16 + p] = ((d * 131 + p * 17) % 32) - 16;
        }
    }
}
int distance(int glyph[16], int d) {
    int dist = 0;
    for (int p = 0; p < 16; p++) {
        #pragma HLS pipeline II=1
        #pragma HLS unroll factor=4
        int delta = glyph[p] - templates[d * 16 + p];
        if (delta < 0) { delta = -delta; }
        dist = dist + delta;
    }
    return dist;
}
int weighted_distance(int glyph[16], int d) {
    int dist = 0;
    for (int p = 0; p < 16; p++) {
        #pragma HLS pipeline II=1
        #pragma HLS unroll factor=4
        int delta = glyph[p] - templates[d * 16 + p];
        if (delta < 0) { delta = -delta; }
        int weight = 1;
        if (p >= 4 && p < 12) { weight = 2; }
        dist = dist + delta * weight;
    }
    return dist;
}
int votes_for[10];
int kernel(int glyph[16]) {
    #pragma HLS array_partition variable=glyph factor=4
    init_templates();
    for (int d = 0; d < 10; d++) {
        #pragma HLS pipeline II=1
        votes_for[d] = 0;
    }
    int best_d = 0;
    int best = distance(glyph, 0);
    for (int d = 1; d < 10; d++) {
        #pragma HLS pipeline II=1
        int dist = distance(glyph, d);
        if (dist < best) {
            best = dist;
            best_d = d;
        }
    }
    votes_for[best_d] = votes_for[best_d] + 2;
    int wbest_d = 0;
    int wbest = weighted_distance(glyph, 0);
    for (int d = 1; d < 10; d++) {
        #pragma HLS pipeline II=1
        int dist = weighted_distance(glyph, d);
        if (dist < wbest) {
            wbest = dist;
            wbest_d = d;
        }
    }
    votes_for[wbest_d] = votes_for[wbest_d] + 1;
    int winner = 0;
    for (int d = 1; d < 10; d++) {
        #pragma HLS pipeline II=1
        if (votes_for[d] > votes_for[winner]) { winner = d; }
    }
    int votes = winner * 100 + best % 100;
    return votes;
}
)";
    for (int t = 0; t < 11; ++t) {
        std::vector<long> glyph(16);
        for (int p = 0; p < 16; ++p)
            glyph[p] = (((t % 10) * 131 + p * 17) % 32) - 16;
        s.existing_tests.push_back({KernelArg::ofInts(glyph)});
    }
    return s;
}

} // namespace detail

} // namespace heterogen::subjects
