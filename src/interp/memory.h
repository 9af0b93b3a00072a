/**
 * @file
 * Block-based memory model for the interpreter.
 *
 * Every variable, array, struct instance, and malloc'd object is one block
 * of Value cells. Pointers are (block, offset) pairs, so out-of-bounds,
 * null-dereference and use-after-free become precise traps rather than
 * undefined behaviour — the trap text feeds differential testing.
 *
 * Cells live in one flat arena shared by all blocks. load() returns by
 * value (Value is trivially copyable) so the arena can relocate as it
 * grows, and blocks are plain structs — struct-field type patterns live
 * in a side arena so allocation is a bump plus a push_back. These access
 * paths are header-inline: allocation and load/store are the
 * interpreter's hottest operations by a wide margin.
 */

#ifndef HETEROGEN_INTERP_MEMORY_H
#define HETEROGEN_INTERP_MEMORY_H

#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "interp/value.h"

namespace heterogen::interp {

/** Raised on any memory-safety or arithmetic trap during interpretation. */
class Trap : public std::runtime_error
{
  public:
    explicit Trap(const std::string &msg) : std::runtime_error(msg) {}
};

/** One allocated block: a typed span of cells in the arena. */
struct MemBlock
{
    size_t base = 0; ///< first cell in the arena
    int32_t size = 0; ///< cell count
    /**
     * For struct-typed blocks: span into the pattern arena holding the
     * repeating per-cell type pattern (one entry per field).
     * pattern_len == 0 marks a scalar block.
     */
    int32_t pattern_pos = 0;
    int32_t pattern_len = 0;
    const cir::Type *elem_type = nullptr; ///< declared cell type (nullable)
    bool alive = true;
    bool from_malloc = false;
};

/**
 * The interpreter's store: blocks plus a stream table.
 */
class Memory
{
  public:
    Memory()
    {
        cells_.reserve(256);
        blocks_.reserve(64);
        // Block 0 is the reserved null block; never alive.
        blocks_.push_back(MemBlock{});
        blocks_[0].alive = false;
    }

    /**
     * Upper bound on cells per allocation. The modeled target is an
     * FPGA-scale memory, so any one object this large is already
     * un-synthesizable — and a fuzzed `malloc(n)` with a huge n must
     * trap like every other bad program, not exhaust the host.
     */
    static constexpr long kMaxCells = 1L << 22;

    /**
     * Upper bound on the cells one run allocates in total. The arena
     * never shrinks within a run (freed and popped blocks keep their
     * cells), so a malloc loop, or an array declared in a loop, would
     * otherwise hold host memory without limit; past this it traps
     * like a huge malloc does. Every malloc, array and struct block
     * counts. A lone non-malloc cell does not: it is a scalar variable,
     * which the VM keeps in a register where the walker allocates it,
     * and the trap must fall at the same allocation on both engines.
     * The step limit bounds those. One full-size object fits; the
     * largest whole run measured over the evaluation subjects, their
     * manual ports, the streaming subjects, the forum corpus and the
     * perfbench workloads allocates 44193 cells, under 1/90 of it.
     */
    static constexpr long kMaxRunCells = kMaxCells;

    /** Allocate a block of `count` cells typed `elem`. Returns block id. */
    int32_t
    allocate(int count, const cir::Type *elem, bool from_malloc = false)
    {
        if (count < 0)
            throw Trap("allocation with negative size");
        if (count > kMaxCells)
            throw Trap("allocation exceeds interpreter heap limit");
        if (count > 1 || from_malloc)
            chargeRunCells(count);
        MemBlock block;
        block.base = cells_.size();
        block.size = count;
        block.elem_type = elem;
        block.from_malloc = from_malloc;
        cells_.resize(cells_.size() + static_cast<size_t>(count));
        blocks_.push_back(block);
        return static_cast<int32_t>(blocks_.size() - 1);
    }

    int32_t
    allocate(int count, const cir::TypePtr &elem, bool from_malloc = false)
    {
        return allocate(count, elem.get(), from_malloc);
    }

    int32_t
    allocatePattern(int count, const cir::TypePtr &tag,
                    const std::vector<const cir::Type *> &pattern,
                    bool from_malloc = false)
    {
        return allocatePattern(count, tag.get(), pattern, from_malloc);
    }

    /**
     * Allocate `count` instances of a struct whose fields have the given
     * per-cell type pattern; total cells = count * pattern.size().
     */
    int32_t
    allocatePattern(int count, const cir::Type *tag,
                    const std::vector<const cir::Type *> &pattern,
                    bool from_malloc = false)
    {
        if (count < 0)
            throw Trap("allocation with negative size");
        if (pattern.empty())
            throw Trap("struct allocation with empty layout");
        if (static_cast<long>(count) * static_cast<long>(pattern.size()) >
            kMaxCells)
            throw Trap("allocation exceeds interpreter heap limit");
        chargeRunCells(static_cast<long>(count) *
                       static_cast<long>(pattern.size()));
        MemBlock block;
        block.base = cells_.size();
        block.size =
            static_cast<int32_t>(static_cast<size_t>(count) * pattern.size());
        block.elem_type = tag;
        block.pattern_pos = static_cast<int32_t>(pattern_cells_.size());
        block.pattern_len = static_cast<int32_t>(pattern.size());
        pattern_cells_.insert(pattern_cells_.end(), pattern.begin(),
                              pattern.end());
        block.from_malloc = from_malloc;
        cells_.resize(cells_.size() + static_cast<size_t>(block.size));
        blocks_.push_back(block);
        return static_cast<int32_t>(blocks_.size() - 1);
    }

    /**
     * Restore to freshly-constructed state, the run's heap budget
     * included. Capacity of the arenas is kept, so a reused Memory
     * allocates nothing on the fast path; kMaxRunCells and the step
     * limit bound it.
     */
    void
    reset()
    {
        cells_.clear();
        run_cells_ = 0;
        blocks_.clear();
        pattern_cells_.clear();
        streams_.clear();
        blocks_.push_back(MemBlock{});
        blocks_[0].alive = false;
    }

    /** Free a malloc'd block; traps on double free / non-heap free. */
    void release(Place p);

    /** Load one cell; traps on bad access. */
    Value
    load(Place p) const
    {
        const MemBlock &block = checkedBlock(p);
        return cells_[block.base + static_cast<size_t>(p.offset)];
    }

    /** Store one cell with coercion to the block's element type. */
    void
    store(Place p, const Value &v)
    {
        const MemBlock &block = checkedBlock(p);
        const cir::Type *cell_type =
            block.pattern_len == 0
                ? block.elem_type
                : pattern_cells_[static_cast<size_t>(
                      block.pattern_pos + p.offset % block.pattern_len)];
        cells_[block.base + static_cast<size_t>(p.offset)] =
            coerceToType(v, cell_type);
    }

    /** Store without type coercion (used to seed typed aggregates). */
    void
    storeRaw(Place p, Value v)
    {
        const MemBlock &block = checkedBlock(p);
        cells_[block.base + static_cast<size_t>(p.offset)] = v;
    }

    /** Number of cells in a block. */
    int
    blockSize(int32_t block) const
    {
        if (block <= 0 || block >= static_cast<int32_t>(blocks_.size()))
            return 0;
        return blocks_[block].size;
    }

    /** The block's declared element type (may be null). */
    const cir::Type *
    blockType(int32_t block) const
    {
        if (block <= 0 || block >= static_cast<int32_t>(blocks_.size()))
            return nullptr;
        return blocks_[block].elem_type;
    }

    /** True if the block id is valid and alive. */
    bool
    alive(int32_t block) const
    {
        return block > 0 && block < static_cast<int32_t>(blocks_.size()) &&
               blocks_[block].alive;
    }

    /** Create a new stream; returns its id. */
    int32_t createStream();

    /** FIFO ops; read traps on empty. */
    void streamWrite(int32_t id, const Value &v);
    Value streamRead(int32_t id);
    bool streamEmpty(int32_t id) const;
    size_t streamSize(int32_t id) const;

    /** Total live heap cells (resource accounting / leak tests). */
    size_t liveCells() const;

  private:
    /** Count `count` more cells against the run's budget (kMaxRunCells). */
    void
    chargeRunCells(long count)
    {
        if (run_cells_ + count > kMaxRunCells)
            throw Trap("interpreter heap exhausted");
        run_cells_ += count;
    }

    const MemBlock &
    checkedBlock(Place p) const
    {
        if (p.isNull())
            throw Trap("null pointer dereference");
        if (p.block < 0 || p.block >= static_cast<int32_t>(blocks_.size()))
            throw Trap("wild pointer dereference");
        const MemBlock &block = blocks_[p.block];
        if (!block.alive)
            throw Trap("use after free");
        if (p.offset < 0 || p.offset >= block.size)
            throw Trap("out-of-bounds access at offset " +
                       std::to_string(p.offset) + " of block size " +
                       std::to_string(block.size));
        return block;
    }

    std::deque<Value> &stream(int32_t id);
    const std::deque<Value> &stream(int32_t id) const;

    /** All blocks' cells, end-to-end; grows monotonically per run. */
    std::vector<Value> cells_;
    /** Cells charged against kMaxRunCells this run. */
    long run_cells_ = 0;
    std::vector<MemBlock> blocks_;
    /** Side arena for struct blocks' per-cell type patterns. */
    std::vector<const cir::Type *> pattern_cells_;
    std::vector<std::deque<Value>> streams_;
};

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_MEMORY_H
