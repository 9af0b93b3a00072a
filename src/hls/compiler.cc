#include "hls/compiler.h"

#include "cir/printer.h"
#include "cir/walk.h"
#include "hls/synth_check.h"
#include "support/run_context.h"
#include "support/strings.h"

namespace heterogen::hls {

using namespace cir;

HlsToolchain::HlsToolchain(HlsConfig config) : config_(std::move(config)) {}

double
HlsToolchain::synthMinutes(int loc, int num_pragmas, int num_structs)
{
    // Empirical shape: a floor for elaboration plus scheduling/binding
    // effort that grows with design size and pragma-driven exploration.
    return 1.5 + double(loc) / 50.0 + 0.3 * num_pragmas +
           0.5 * num_structs;
}

CompileResult
HlsToolchain::compile(const TranslationUnit &tu)
{
    CompileResult result;
    result.loc = countLines(print(tu));
    int num_pragmas = 0;
    forEachStmt(tu, [&num_pragmas](const Stmt &s) {
        if (s.kind() == StmtKind::Pragma)
            ++num_pragmas;
    });
    result.synth_minutes = synthMinutes(result.loc, num_pragmas,
                                        int(tu.structs.size()));

    result.errors = checkSynthesizability(tu, config_);
    if (!result.errors.empty())
        return result;

    result.resources = estimateResources(tu, &config_);
    const DeviceSpec *device = findDevice(config_.device);
    if (device && !result.resources.fits(*device)) {
        HlsError e;
        e.code = "IMPL 200-90";
        e.message = "design does not fit device '" + config_.device +
                    "': " + result.resources.str();
        e.category = ErrorCategory::TopFunction;
        result.errors.push_back(std::move(e));
        return result;
    }
    result.ok = true;
    return result;
}

CompileResult
HlsToolchain::compile(RunContext &ctx, const TranslationUnit &tu)
{
    if (!admitFaultSite(ctx, "hls.compile")) {
        CompileResult failed;
        failed.tool_failure = true;
        failed.errors.push_back(diag::toolFailure("hls.compile"));
        return failed;
    }
    CompileResult result = compile(tu);
    ctx.charge(result.synth_minutes);
    ctx.count("hls.compiles");
    for (const HlsError &error : result.errors)
        ctx.count("hls.errors." + categorySlug(error.category));
    return result;
}

} // namespace heterogen::hls
