#include "interp/interp.h"

#include "interp/bytecode/bytecode.h"
#include "support/run_context.h"

namespace heterogen::interp {

using namespace cir;

bool
RunResult::sameBehavior(const RunResult &other) const
{
    if (ok != other.ok)
        return false;
    if (!ok)
        return true; // both trapped: treat any trap as "failed" behaviour
    if (has_ret != other.has_ret)
        return false;
    if (has_ret && !(ret == other.ret))
        return false;
    return out_args == other.out_args;
}

Interpreter::Interpreter(const TranslationUnit &tu) : tu_(tu) {}

Interpreter::~Interpreter() = default;

const bytecode::Program &
Interpreter::compiled(RunContext *trace) const
{
    std::call_once(compile_once_, [&] {
        program_ = bytecode::compileProgram(tu_);
        if (trace)
            trace->count("interp.bytecode.compiles");
    });
    return *program_;
}

RunResult
Interpreter::run(const std::string &function,
                 const std::vector<KernelArg> &args,
                 const RunOptions &options) const
{
    RunResult result = bytecode::executeProgram(compiled(options.trace),
                                                function, args, options);
    if (options.trace) {
        options.trace->count("interp.runs");
        options.trace->count("interp.steps",
                             static_cast<int64_t>(result.steps));
        if (!result.ok)
            options.trace->count("interp.traps");
    }
    return result;
}

RunResult
runProgram(const TranslationUnit &tu, const std::string &function,
           const std::vector<KernelArg> &args, const RunOptions &options)
{
    return Interpreter(tu).run(function, args, options);
}

} // namespace heterogen::interp
