#include "cir/parser.h"

#include <pthread.h>

#include <exception>
#include <functional>
#include <optional>
#include <set>

#include "cir/lexer.h"
#include "support/strings.h"

namespace heterogen::cir {

namespace {

/** Keywords that begin a base type. */
bool
isTypeKeyword(const std::string &word)
{
    static const std::set<std::string> kws = {
        "void", "bool", "char", "int", "long", "float", "double",
        "unsigned", "signed", "fpga_int", "fpga_uint", "fpga_float",
        "hls::stream",
    };
    return kws.count(word) > 0;
}

bool
isReservedWord(const std::string &word)
{
    static const std::set<std::string> kws = {
        "if", "else", "while", "for", "return", "break", "continue",
        "struct", "union", "static", "const", "sizeof", "true", "false",
    };
    return kws.count(word) > 0 || isTypeKeyword(word);
}

/**
 * Deepest nesting a source may use. Each nested block or statement
 * body, else-if link, parenthesis, subscript, call or struct-literal
 * argument, assignment or conditional operand, prefix operator, cast
 * and stream element type adds one level, and so does each link of a
 * binary-operator, postfix, pointer or array-dimension chain; a
 * function body's own statements and their top-level expressions sit
 * at level 0. The parser and every AST walker after it (sema, printer,
 * clone, the bytecode compiler, synth_check) recurse once per level,
 * so this one bound keeps hostile input from exhausting any of their
 * stacks.
 */
constexpr int kMaxNestingDepth = 1000;

/**
 * Nesting a parse may reach on the caller's stack. An AddressSanitizer
 * build spends ~24 KB of frames per parenthesis level (an unoptimized
 * one ~7 KB), so kMaxNestingDepth levels need more than a default 8 MB
 * thread stack; the few sources that nest deeper than this start over
 * on a dedicated stack (see parseOnFittingStack).
 */
constexpr int kCallerStackDepth = 128;

/** Thrown when a parse on the caller's stack nests past
 * kCallerStackDepth. */
struct OutgrewCallerStack
{
};

class Parser
{
  public:
    /** `stack_depth` caps nesting before OutgrewCallerStack is thrown;
     * kMaxNestingDepth means the parse already runs on a big stack. */
    Parser(const std::vector<Token> &tokens, int stack_depth)
        : toks_(tokens), stack_depth_(stack_depth)
    {
    }

    TuPtr
    parseTu()
    {
        auto tu = std::make_unique<TranslationUnit>();
        while (!peek().is(Tok::End)) {
            if (peek().isIdent("struct") || peek().isIdent("union")) {
                // "struct Name {" starts a definition; "struct Name var"
                // is a global declaration.
                if (peekAhead(2).isPunct("{")) {
                    tu->structs.push_back(parseStructDecl());
                    continue;
                }
            }
            parseTopLevelItem(*tu);
        }
        return tu;
    }

    ExprPtr
    parseSingleExpr()
    {
        ExprPtr e = parseExpr();
        expectEnd();
        return e;
    }

  private:
    /**
     * RAII: `levels` nesting levels deeper (plus one per deeper() call)
     * for the guard's lifetime; a FatalError past kMaxNestingDepth.
     */
    class Nested
    {
      public:
        explicit Nested(Parser &parser, int levels = 1) : parser_(parser)
        {
            while (levels_ < levels)
                deeper();
        }
        ~Nested() { parser_.depth_ -= levels_; }
        Nested(const Nested &) = delete;
        Nested &operator=(const Nested &) = delete;

        void
        deeper()
        {
            if (parser_.depth_ >= kMaxNestingDepth)
                fatal("nesting deeper than ", kMaxNestingDepth,
                      " levels at ", parser_.peek().loc.str());
            if (parser_.depth_ >= parser_.stack_depth_)
                throw OutgrewCallerStack{};
            ++parser_.depth_;
            ++levels_;
        }

      private:
        Parser &parser_;
        int levels_ = 0;
    };

    /** An expression nested inside another one. */
    ExprPtr
    parseNestedExpr()
    {
        Nested nested(*this);
        return parseAssignExpr();
    }

    // --- token plumbing ----------------------------------------------------

    const Token &peek() const { return toks_[pos_]; }

    const Token &
    peekAhead(size_t n) const
    {
        size_t i = pos_ + n;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }

    Token
    advance()
    {
        Token t = toks_[pos_];
        if (pos_ + 1 < toks_.size())
            ++pos_;
        return t;
    }

    bool
    accept(const std::string &punct)
    {
        if (peek().isPunct(punct)) {
            advance();
            return true;
        }
        return false;
    }

    bool
    acceptIdent(const std::string &name)
    {
        if (peek().isIdent(name)) {
            advance();
            return true;
        }
        return false;
    }

    Token
    expectPunct(const std::string &punct)
    {
        if (!peek().isPunct(punct)) {
            fatal("expected '", punct, "' at ", peek().loc.str(),
                  ", found '", peek().text, "'");
        }
        return advance();
    }

    Token
    expectIdent()
    {
        if (!peek().is(Tok::Ident) || isReservedWord(peek().text)) {
            fatal("expected identifier at ", peek().loc.str(), ", found '",
                  peek().text, "'");
        }
        return advance();
    }

    void
    expectEnd()
    {
        if (!peek().is(Tok::End))
            fatal("unexpected trailing input at ", peek().loc.str(), ": '",
                  peek().text, "'");
    }

    // --- types --------------------------------------------------------------

    /** True if the current token could start a type. */
    bool
    startsType() const
    {
        const Token &t = peek();
        if (!t.is(Tok::Ident))
            return false;
        if (isTypeKeyword(t.text) || t.text == "const" ||
            t.text == "struct" || t.text == "union") {
            return true;
        }
        // A known struct name starts a type only when used like one:
        // "Node n", "Node *p", "Node arr[4]".
        if (struct_names_.count(t.text)) {
            const Token &n = peekAhead(1);
            return (n.is(Tok::Ident) && !isReservedWord(n.text)) ||
                   n.isPunct("*") || n.isPunct("&");
        }
        return false;
    }

    TypePtr
    parseTypeBase()
    {
        while (acceptIdent("const") || acceptIdent("static")) {
        }
        Token t = expectTypeWord();
        TypePtr base;
        if (t.text == "void") {
            base = Type::voidType();
        } else if (t.text == "bool") {
            base = Type::boolType();
        } else if (t.text == "char") {
            base = Type::charType();
        } else if (t.text == "int") {
            base = Type::intType();
        } else if (t.text == "long") {
            if (acceptIdent("double")) {
                base = Type::longDoubleType();
            } else {
                acceptIdent("long");
                acceptIdent("int");
                base = Type::longType();
            }
        } else if (t.text == "float") {
            base = Type::floatType();
        } else if (t.text == "double") {
            base = Type::doubleType();
        } else if (t.text == "unsigned") {
            acceptIdent("int");
            base = Type::fpgaUint(32);
        } else if (t.text == "signed") {
            acceptIdent("int");
            base = Type::intType();
        } else if (t.text == "fpga_int" || t.text == "fpga_uint") {
            expectPunct("<");
            Token w = advance();
            if (!w.is(Tok::IntLit))
                fatal("expected bit width at ", w.loc.str());
            expectPunct(">");
            base = t.text == "fpga_int"
                       ? Type::fpgaInt(static_cast<int>(w.int_value))
                       : Type::fpgaUint(static_cast<int>(w.int_value));
        } else if (t.text == "fpga_float") {
            expectPunct("<");
            Token e = advance();
            expectPunct(",");
            Token m = advance();
            expectPunct(">");
            if (!e.is(Tok::IntLit) || !m.is(Tok::IntLit))
                fatal("expected fpga_float field widths at ", t.loc.str());
            base = Type::fpgaFloat(static_cast<int>(e.int_value),
                                   static_cast<int>(m.int_value));
        } else if (t.text == "hls::stream") {
            expectPunct("<");
            Nested nested(*this);
            TypePtr elem = parseType();
            expectPunct(">");
            base = Type::stream(std::move(elem));
        } else if (t.text == "struct" || t.text == "union") {
            Token name = expectIdent();
            base = Type::structType(name.text);
        } else if (struct_names_.count(t.text)) {
            base = Type::structType(t.text);
        } else {
            fatal("unknown type '", t.text, "' at ", t.loc.str());
        }
        return base;
    }

    Token
    expectTypeWord()
    {
        if (!peek().is(Tok::Ident))
            fatal("expected type at ", peek().loc.str());
        return advance();
    }

    /** Full type: base plus pointer suffixes. */
    TypePtr
    parseType()
    {
        TypePtr t = parseTypeBase();
        Nested chain(*this, 0);
        while (accept("*")) {
            chain.deeper();
            t = Type::pointer(t);
        }
        return t;
    }

    /**
     * Array suffixes after a declared name; outermost dimension first.
     * Returns the possibly-wrapped type; a non-constant size expression is
     * surfaced through vla_out (single dynamic dimension supported).
     */
    TypePtr
    parseArraySuffix(TypePtr base, ExprPtr *vla_out)
    {
        std::vector<long> dims;
        ExprPtr vla;
        Nested chain(*this, 0);
        while (accept("[")) {
            chain.deeper();
            if (accept("]")) {
                dims.push_back(kUnknownArraySize);
                continue;
            }
            ExprPtr size = parseExpr();
            expectPunct("]");
            if (size->kind() == ExprKind::IntLit) {
                dims.push_back(static_cast<IntLit *>(size.get())->value);
            } else {
                dims.push_back(kUnknownArraySize);
                if (vla)
                    fatal("multiple dynamic array dimensions at ",
                          size->loc.str());
                vla = std::move(size);
            }
        }
        for (auto it = dims.rbegin(); it != dims.rend(); ++it)
            base = Type::array(base, *it);
        if (vla_out)
            *vla_out = std::move(vla);
        else if (vla)
            fatal("dynamic array size not allowed here");
        return base;
    }

    // --- declarations -------------------------------------------------------

    void
    parseTopLevelItem(TranslationUnit &tu)
    {
        bool is_static = false;
        while (peek().isIdent("static")) {
            is_static = true;
            advance();
        }
        SourceLoc loc = peek().loc;
        TypePtr type = parseType();
        Token name = expectIdent();
        if (peek().isPunct("(")) {
            tu.functions.push_back(
                parseFunctionRest(std::move(type), name.text, loc));
        } else {
            StmtPtr decl =
                parseVarDeclRest(std::move(type), name.text, loc, is_static);
            tu.globals.push_back(std::move(decl));
        }
    }

    FunctionPtr
    parseFunctionRest(TypePtr ret, std::string name, SourceLoc loc)
    {
        auto fn = std::make_unique<FunctionDecl>();
        fn->ret_type = std::move(ret);
        fn->name = std::move(name);
        fn->loc = loc;
        fn->params = parseParamList();
        fn->body = parseBlock();
        return fn;
    }

    std::vector<Param>
    parseParamList()
    {
        expectPunct("(");
        std::vector<Param> params;
        if (accept(")"))
            return params;
        do {
            if (peek().isIdent("void") && peekAhead(1).isPunct(")")) {
                advance();
                break;
            }
            Param p;
            p.type = parseType();
            if (accept("&"))
                p.is_reference = true;
            Token name = expectIdent();
            p.name = name.text;
            p.type = parseArraySuffix(std::move(p.type), nullptr);
            params.push_back(std::move(p));
        } while (accept(","));
        expectPunct(")");
        return params;
    }

    StmtPtr
    parseVarDeclRest(TypePtr type, std::string name, SourceLoc loc,
                     bool is_static)
    {
        ExprPtr vla;
        type = parseArraySuffix(std::move(type), &vla);
        ExprPtr init;
        if (accept("="))
            init = parseAssignExpr();
        expectPunct(";");
        auto decl = std::make_unique<DeclStmt>(std::move(type),
                                               std::move(name),
                                               std::move(init));
        decl->is_static = is_static;
        decl->vla_size = std::move(vla);
        decl->loc = loc;
        return decl;
    }

    StructPtr
    parseStructDecl()
    {
        auto sd = std::make_unique<StructDecl>();
        sd->loc = peek().loc;
        sd->is_union = peek().isIdent("union");
        advance(); // struct / union
        sd->name = expectIdent().text;
        struct_names_.insert(sd->name);
        expectPunct("{");
        while (!accept("}")) {
            parseStructMember(*sd);
        }
        expectPunct(";");
        return sd;
    }

    void
    parseStructMember(StructDecl &sd)
    {
        // Constructor: "Name(params) : inits {}".
        if (peek().isIdent(sd.name) && peekAhead(1).isPunct("(")) {
            advance();
            auto ctor = std::make_unique<Ctor>();
            ctor->params = parseParamList();
            if (accept(":")) {
                do {
                    Token field = expectIdent();
                    expectPunct("(");
                    Token param = expectIdent();
                    expectPunct(")");
                    ctor->inits.emplace_back(field.text, param.text);
                } while (accept(","));
            }
            expectPunct("{");
            expectPunct("}");
            sd.ctor = std::move(ctor);
            return;
        }
        SourceLoc loc = peek().loc;
        TypePtr type = parseType();
        bool is_ref = accept("&");
        Token name = expectIdent();
        if (peek().isPunct("(")) {
            // Method definition.
            auto fn = std::make_unique<FunctionDecl>();
            fn->ret_type = std::move(type);
            fn->name = name.text;
            fn->loc = loc;
            fn->params = parseParamList();
            acceptIdent("const");
            fn->body = parseBlock();
            sd.methods.push_back(std::move(fn));
            return;
        }
        Field f;
        f.type = parseArraySuffix(std::move(type), nullptr);
        f.name = name.text;
        f.is_reference = is_ref;
        sd.fields.push_back(std::move(f));
        expectPunct(";");
    }

    // --- statements ---------------------------------------------------------

    BlockPtr
    parseBlock()
    {
        auto block = std::make_unique<Block>();
        block->loc = peek().loc;
        expectPunct("{");
        while (!accept("}"))
            block->stmts.push_back(parseStmt());
        return block;
    }

    /** Wrap a single statement in a Block unless it already is one. */
    BlockPtr
    parseBlockOrSingle()
    {
        Nested nested(*this);
        if (peek().isPunct("{"))
            return parseBlock();
        auto block = std::make_unique<Block>();
        block->loc = peek().loc;
        block->stmts.push_back(parseStmt());
        return block;
    }

    StmtPtr
    parseStmt()
    {
        const Token &t = peek();
        if (t.is(Tok::Pragma))
            return parsePragmaStmt();
        if (t.isPunct("{")) {
            Nested nested(*this);
            return parseBlock();
        }
        if (t.isIdent("if"))
            return parseIf();
        if (t.isIdent("while"))
            return parseWhile();
        if (t.isIdent("for"))
            return parseFor();
        if (t.isIdent("return")) {
            SourceLoc loc = advance().loc;
            ExprPtr value;
            if (!peek().isPunct(";"))
                value = parseExpr();
            expectPunct(";");
            auto s = std::make_unique<ReturnStmt>(std::move(value));
            s->loc = loc;
            return s;
        }
        if (t.isIdent("break")) {
            SourceLoc loc = advance().loc;
            expectPunct(";");
            auto s = std::make_unique<BreakStmt>();
            s->loc = loc;
            return s;
        }
        if (t.isIdent("continue")) {
            SourceLoc loc = advance().loc;
            expectPunct(";");
            auto s = std::make_unique<ContinueStmt>();
            s->loc = loc;
            return s;
        }
        bool is_static = false;
        while (peek().isIdent("static")) {
            is_static = true;
            advance();
        }
        if (is_static || startsType()) {
            SourceLoc loc = peek().loc;
            TypePtr type = parseType();
            Token name = expectIdent();
            return parseVarDeclRest(std::move(type), name.text, loc,
                                    is_static);
        }
        SourceLoc loc = peek().loc;
        ExprPtr e = parseExpr();
        expectPunct(";");
        auto s = std::make_unique<ExprStmt>(std::move(e));
        s->loc = loc;
        return s;
    }

    StmtPtr
    parsePragmaStmt()
    {
        Token t = advance();
        PragmaInfo info;
        std::vector<std::string> words;
        for (const std::string &piece : split(t.text, ' ')) {
            std::string w = trim(piece);
            if (!w.empty())
                words.push_back(w);
        }
        if (words.empty())
            fatal("empty #pragma HLS at ", t.loc.str());
        if (!parsePragmaKind(words[0], info.kind))
            fatal("unknown HLS pragma '", words[0], "' at ", t.loc.str());
        for (size_t i = 1; i < words.size(); ++i) {
            auto eq = words[i].find('=');
            if (eq == std::string::npos)
                info.params[toLower(words[i])] = "";
            else
                info.params[toLower(words[i].substr(0, eq))] =
                    words[i].substr(eq + 1);
        }
        auto s = std::make_unique<PragmaStmt>(std::move(info));
        s->loc = t.loc;
        return s;
    }

    StmtPtr
    parseIf()
    {
        SourceLoc loc = advance().loc;
        expectPunct("(");
        ExprPtr cond = parseExpr();
        expectPunct(")");
        BlockPtr then_block = parseBlockOrSingle();
        BlockPtr else_block;
        if (acceptIdent("else")) {
            if (peek().isIdent("if")) {
                // else-if chains become a nested IfStmt in a block.
                Nested nested(*this);
                auto wrapper = std::make_unique<Block>();
                wrapper->stmts.push_back(parseIf());
                else_block = std::move(wrapper);
            } else {
                else_block = parseBlockOrSingle();
            }
        }
        auto s = std::make_unique<IfStmt>(std::move(cond),
                                          std::move(then_block),
                                          std::move(else_block));
        s->loc = loc;
        return s;
    }

    StmtPtr
    parseWhile()
    {
        SourceLoc loc = advance().loc;
        expectPunct("(");
        ExprPtr cond = parseExpr();
        expectPunct(")");
        BlockPtr body = parseBlockOrSingle();
        auto s = std::make_unique<WhileStmt>(std::move(cond),
                                             std::move(body));
        s->loc = loc;
        return s;
    }

    StmtPtr
    parseFor()
    {
        SourceLoc loc = advance().loc;
        expectPunct("(");
        StmtPtr init;
        if (!accept(";")) {
            if (startsType()) {
                SourceLoc dloc = peek().loc;
                TypePtr type = parseType();
                Token name = expectIdent();
                init = parseVarDeclRest(std::move(type), name.text, dloc,
                                        false);
            } else {
                ExprPtr e = parseExpr();
                expectPunct(";");
                init = std::make_unique<ExprStmt>(std::move(e));
            }
        }
        ExprPtr cond;
        if (!peek().isPunct(";"))
            cond = parseExpr();
        expectPunct(";");
        ExprPtr step;
        if (!peek().isPunct(")"))
            step = parseExpr();
        expectPunct(")");
        BlockPtr body = parseBlockOrSingle();
        auto s = std::make_unique<ForStmt>(std::move(init), std::move(cond),
                                           std::move(step), std::move(body));
        s->loc = loc;
        return s;
    }

    // --- expressions --------------------------------------------------------

    ExprPtr
    parseExpr()
    {
        return parseAssignExpr();
    }

    ExprPtr
    parseAssignExpr()
    {
        ExprPtr lhs = parseTernary();
        std::optional<AssignOp> op;
        if (peek().isPunct("=")) {
            op = AssignOp::Plain;
        } else if (peek().isPunct("+=")) {
            op = AssignOp::Add;
        } else if (peek().isPunct("-=")) {
            op = AssignOp::Sub;
        } else if (peek().isPunct("*=")) {
            op = AssignOp::Mul;
        } else if (peek().isPunct("/=")) {
            op = AssignOp::Div;
        } else if (peek().isPunct("%=")) {
            op = AssignOp::Mod;
        }
        if (!op)
            return lhs;
        SourceLoc loc = advance().loc;
        ExprPtr rhs = parseNestedExpr();
        auto e = std::make_unique<Assign>(*op, std::move(lhs),
                                          std::move(rhs));
        e->loc = loc;
        return e;
    }

    ExprPtr
    parseTernary()
    {
        ExprPtr cond = parseBinary(0);
        if (!accept("?"))
            return cond;
        ExprPtr then_expr = parseNestedExpr();
        expectPunct(":");
        ExprPtr else_expr = parseNestedExpr();
        auto e = std::make_unique<Ternary>(std::move(cond),
                                           std::move(then_expr),
                                           std::move(else_expr));
        return e;
    }

    /** Binary operator table ordered by increasing precedence level. */
    struct OpLevel
    {
        const char *spelling;
        BinaryOp op;
        int level;
    };

    static const std::vector<OpLevel> &
    binaryOps()
    {
        static const std::vector<OpLevel> ops = {
            {"||", BinaryOp::LogOr, 0},
            {"&&", BinaryOp::LogAnd, 1},
            {"|", BinaryOp::BitOr, 2},
            {"^", BinaryOp::BitXor, 3},
            {"&", BinaryOp::BitAnd, 4},
            {"==", BinaryOp::Eq, 5},
            {"!=", BinaryOp::Ne, 5},
            {"<", BinaryOp::Lt, 6},
            {">", BinaryOp::Gt, 6},
            {"<=", BinaryOp::Le, 6},
            {">=", BinaryOp::Ge, 6},
            {"<<", BinaryOp::Shl, 7},
            {">>", BinaryOp::Shr, 7},
            {"+", BinaryOp::Add, 8},
            {"-", BinaryOp::Sub, 8},
            {"*", BinaryOp::Mul, 9},
            {"/", BinaryOp::Div, 9},
            {"%", BinaryOp::Mod, 9},
        };
        return ops;
    }

    static constexpr int kMaxBinaryLevel = 10;

    ExprPtr
    parseBinary(int level)
    {
        if (level >= kMaxBinaryLevel)
            return parseUnary();
        ExprPtr lhs = parseBinary(level + 1);
        Nested chain(*this, 0);
        for (;;) {
            const OpLevel *matched = nullptr;
            for (const OpLevel &cand : binaryOps()) {
                if (cand.level == level && peek().isPunct(cand.spelling)) {
                    matched = &cand;
                    break;
                }
            }
            if (!matched)
                return lhs;
            chain.deeper();
            SourceLoc loc = advance().loc;
            ExprPtr rhs = parseBinary(level + 1);
            auto e = std::make_unique<Binary>(matched->op, std::move(lhs),
                                              std::move(rhs));
            e->loc = loc;
            lhs = std::move(e);
        }
    }

    ExprPtr
    parseUnary()
    {
        SourceLoc loc = peek().loc;
        if (accept("-"))
            return makeUnary(UnaryOp::Neg, loc);
        if (accept("!"))
            return makeUnary(UnaryOp::Not, loc);
        if (accept("~"))
            return makeUnary(UnaryOp::BitNot, loc);
        if (accept("*"))
            return makeUnary(UnaryOp::Deref, loc);
        if (accept("&"))
            return makeUnary(UnaryOp::AddrOf, loc);
        if (accept("++"))
            return makeUnary(UnaryOp::PreInc, loc);
        if (accept("--"))
            return makeUnary(UnaryOp::PreDec, loc);
        if (peek().isIdent("sizeof")) {
            advance();
            expectPunct("(");
            TypePtr t = parseType();
            expectPunct(")");
            auto e = std::make_unique<SizeofType>(std::move(t));
            e->loc = loc;
            return e;
        }
        // Cast: "(" type ")" unary.
        if (peek().isPunct("(") && typeFollowsParen()) {
            advance();
            TypePtr t = parseType();
            expectPunct(")");
            Nested nested(*this);
            ExprPtr operand = parseUnary();
            auto e = std::make_unique<Cast>(std::move(t),
                                            std::move(operand));
            e->loc = loc;
            return e;
        }
        return parsePostfix();
    }

    ExprPtr
    makeUnary(UnaryOp op, SourceLoc loc)
    {
        Nested nested(*this);
        ExprPtr operand = parseUnary();
        auto e = std::make_unique<Unary>(op, std::move(operand));
        e->loc = loc;
        return e;
    }

    /** True if the token after "(" begins a type and closes with ")". */
    bool
    typeFollowsParen() const
    {
        const Token &t = peekAhead(1);
        if (!t.is(Tok::Ident))
            return false;
        bool starts = isTypeKeyword(t.text) || t.text == "struct" ||
                      t.text == "union" || struct_names_.count(t.text) > 0;
        if (!starts)
            return false;
        // Scan forward over the type tokens to confirm ")".
        size_t i = 2;
        if (t.text == "struct" || t.text == "union")
            ++i;
        if (t.text == "long" && peekAhead(2).isIdent("double"))
            ++i;
        if (t.text == "unsigned" && peekAhead(2).isIdent("int"))
            ++i;
        if (t.text == "fpga_int" || t.text == "fpga_uint" ||
            t.text == "fpga_float" || t.text == "hls::stream") {
            int depth = 0;
            while (i + pos_ < toks_.size()) {
                const Token &w = peekAhead(i);
                if (w.isPunct("<"))
                    ++depth;
                if (w.isPunct(">")) {
                    --depth;
                    if (depth == 0) {
                        ++i;
                        break;
                    }
                }
                if (w.is(Tok::End))
                    return false;
                ++i;
            }
        }
        while (peekAhead(i).isPunct("*"))
            ++i;
        return peekAhead(i).isPunct(")");
    }

    ExprPtr
    parsePostfix()
    {
        ExprPtr e = parsePrimary();
        // Every pass that does not return wraps e in one more node.
        Nested chain(*this, 0);
        for (;; chain.deeper()) {
            SourceLoc loc = peek().loc;
            if (accept("[")) {
                ExprPtr idx = parseNestedExpr();
                expectPunct("]");
                auto n = std::make_unique<Index>(std::move(e),
                                                 std::move(idx));
                n->loc = loc;
                e = std::move(n);
            } else if (accept(".") || peek().isPunct("->")) {
                bool arrow = false;
                if (peek().isPunct("->")) {
                    arrow = true;
                    advance();
                }
                Token field = expectIdent();
                if (peek().isPunct("(")) {
                    std::vector<ExprPtr> args = parseArgs();
                    auto n = std::make_unique<MethodCall>(
                        std::move(e), field.text, std::move(args));
                    n->loc = loc;
                    e = std::move(n);
                } else {
                    auto n = std::make_unique<Member>(std::move(e),
                                                      field.text, arrow);
                    n->loc = loc;
                    e = std::move(n);
                }
            } else if (accept("++")) {
                auto n = std::make_unique<Unary>(UnaryOp::PostInc,
                                                 std::move(e));
                n->loc = loc;
                e = std::move(n);
            } else if (accept("--")) {
                auto n = std::make_unique<Unary>(UnaryOp::PostDec,
                                                 std::move(e));
                n->loc = loc;
                e = std::move(n);
            } else {
                return e;
            }
        }
    }

    std::vector<ExprPtr>
    parseArgs()
    {
        expectPunct("(");
        std::vector<ExprPtr> args;
        if (accept(")"))
            return args;
        do {
            args.push_back(parseNestedExpr());
        } while (accept(","));
        expectPunct(")");
        return args;
    }

    ExprPtr
    parsePrimary()
    {
        const Token &t = peek();
        SourceLoc loc = t.loc;
        if (t.is(Tok::IntLit)) {
            advance();
            auto e = std::make_unique<IntLit>(t.int_value);
            e->loc = loc;
            return e;
        }
        if (t.is(Tok::FloatLit)) {
            advance();
            auto e = std::make_unique<FloatLit>(t.float_value,
                                                t.long_double);
            e->loc = loc;
            return e;
        }
        if (t.is(Tok::StringLit)) {
            advance();
            auto e = std::make_unique<StringLit>(t.text);
            e->loc = loc;
            return e;
        }
        if (t.isPunct("(")) {
            advance();
            ExprPtr e = parseNestedExpr();
            expectPunct(")");
            return e;
        }
        if (t.is(Tok::Ident)) {
            if (t.isIdent("true") || t.isIdent("false")) {
                advance();
                auto e = std::make_unique<IntLit>(t.text == "true" ? 1 : 0);
                e->loc = loc;
                return e;
            }
            Token name = advance();
            if (peek().isPunct("(")) {
                std::vector<ExprPtr> args = parseArgs();
                auto e = std::make_unique<Call>(name.text, std::move(args));
                e->loc = loc;
                return e;
            }
            if (peek().isPunct("{") && struct_names_.count(name.text)) {
                advance();
                std::vector<ExprPtr> args;
                if (!accept("}")) {
                    do {
                        args.push_back(parseNestedExpr());
                    } while (accept(","));
                    expectPunct("}");
                }
                auto e = std::make_unique<StructLit>(name.text,
                                                     std::move(args));
                e->loc = loc;
                return e;
            }
            auto e = std::make_unique<Ident>(name.text);
            e->loc = loc;
            return e;
        }
        fatal("unexpected token '", t.text, "' at ", loc.str());
    }

    const std::vector<Token> &toks_;
    size_t pos_ = 0;
    /** Open Nested guards (see kMaxNestingDepth). */
    int depth_ = 0;
    const int stack_depth_;
    std::set<std::string> struct_names_;
};

/** Stack of the dedicated parse thread; pages are committed only as
 * they are touched. */
constexpr size_t kParseStackBytes = size_t(256) << 20;

/** Run `parse` on a thread with a kParseStackBytes stack, rethrowing
 * whatever it throws. */
template <typename Result>
Result
onParseStack(const std::function<Result()> &parse)
{
    struct Call
    {
        const std::function<Result()> &parse;
        Result result;
        std::exception_ptr error;
    } call{parse, nullptr, nullptr};
    void *(*body)(void *) = [](void *arg) -> void * {
        auto *c = static_cast<Call *>(arg);
        try {
            c->result = c->parse();
        } catch (...) {
            c->error = std::current_exception();
        }
        return nullptr;
    };
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, kParseStackBytes);
    pthread_t thread;
    int rc = pthread_create(&thread, &attr, body, &call);
    pthread_attr_destroy(&attr);
    if (rc != 0)
        fatal("parser: cannot start a thread for a deeply nested source");
    pthread_join(thread, nullptr);
    if (call.error)
        std::rethrow_exception(call.error);
    return std::move(call.result);
}

/**
 * Reject sources past kMaxSourceBytes, then run `entry` over the
 * tokens of `source` on the caller's stack, or, if the source nests
 * past kCallerStackDepth, over again on a dedicated stack. The outcome is the same either way: the first
 * attempt only stops early where the second would go on.
 */
template <typename Result>
Result
parseOnFittingStack(const std::string &source, Result (Parser::*entry)())
{
    if (source.size() > kMaxSourceBytes)
        fatal("source larger than ", kMaxSourceBytes, " bytes (got ",
              source.size(), ")");
    std::vector<Token> tokens = tokenize(source);
    try {
        return (Parser(tokens, kCallerStackDepth).*entry)();
    } catch (const OutgrewCallerStack &) {
        return onParseStack<Result>([&tokens, entry] {
            return (Parser(tokens, kMaxNestingDepth).*entry)();
        });
    }
}

} // namespace

TuPtr
parse(const std::string &source)
{
    return parseOnFittingStack(source, &Parser::parseTu);
}

ExprPtr
parseExpression(const std::string &source)
{
    return parseOnFittingStack(source, &Parser::parseSingleExpr);
}

} // namespace heterogen::cir
