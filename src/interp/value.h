/**
 * @file
 * Runtime values for the CIR interpreter.
 *
 * Scalars carry their declared CIR type so stores can apply HLS bitwidth
 * wrapping / float quantization — the mechanism behind CPU-vs-FPGA
 * behavioural divergence that differential testing detects.
 */

#ifndef HETEROGEN_INTERP_VALUE_H
#define HETEROGEN_INTERP_VALUE_H

#include <climits>
#include <cstdint>
#include <string>

#include "cir/type.h"

namespace heterogen::interp {

/** Runtime value categories. */
enum class ValueKind
{
    Unset,   ///< uninitialized cell
    Int,     ///< any integer-family value
    Float,   ///< any floating-family value
    Pointer, ///< (block, offset) into Memory; block 0 is the null block
    Stream,  ///< handle into the stream table
};

/** Address of one cell in the block-based memory model. */
struct Place
{
    int32_t block = 0;
    int32_t offset = 0;

    bool isNull() const { return block == 0; }
    bool
    operator==(const Place &other) const
    {
        return block == other.block && offset == other.offset;
    }
};

/**
 * One scalar runtime value.
 *
 * The declared type is a raw Type pointer: every Type is either a
 * process-lifetime singleton or interned by its factory (cir/type.cc),
 * so values never own their type — which keeps Value trivially
 * copyable, the property the interpreter hot paths depend on.
 */
class Value
{
  public:
    Value() = default;

    static Value
    makeInt(long v, const cir::Type *type = nullptr)
    {
        Value out;
        out.kind_ = ValueKind::Int;
        out.int_ = v;
        out.type_ = type;
        return out;
    }

    static Value
    makeInt(long v, const cir::TypePtr &type)
    {
        return makeInt(v, type.get());
    }

    static Value
    makeFloat(double v, const cir::Type *type = nullptr)
    {
        Value out;
        out.kind_ = ValueKind::Float;
        out.float_ = v;
        out.type_ = type;
        return out;
    }

    static Value
    makeFloat(double v, const cir::TypePtr &type)
    {
        return makeFloat(v, type.get());
    }

    static Value
    makePointer(Place p)
    {
        Value out;
        out.kind_ = ValueKind::Pointer;
        out.place_ = p;
        return out;
    }

    static Value
    makeStream(int32_t stream_id)
    {
        Value out;
        out.kind_ = ValueKind::Stream;
        out.int_ = stream_id;
        return out;
    }

    ValueKind kind() const { return kind_; }
    bool isUnset() const { return kind_ == ValueKind::Unset; }
    bool isInt() const { return kind_ == ValueKind::Int; }
    bool isFloat() const { return kind_ == ValueKind::Float; }
    bool isPointer() const { return kind_ == ValueKind::Pointer; }
    bool isStream() const { return kind_ == ValueKind::Stream; }
    bool isNumeric() const { return isInt() || isFloat(); }

    long asInt() const { return int_; }
    double asFloat() const { return isInt() ? double(int_) : float_; }
    Place asPlace() const { return place_; }
    int32_t streamId() const { return static_cast<int32_t>(int_); }

    /** Declared cell type (may be null for temporaries). */
    const cir::Type *type() const { return type_; }

    /** Truthiness per C semantics. */
    bool
    truthy() const
    {
        switch (kind_) {
          case ValueKind::Int: return int_ != 0;
          case ValueKind::Float: return float_ != 0.0;
          case ValueKind::Pointer: return !place_.isNull();
          case ValueKind::Stream: return true;
          case ValueKind::Unset: return false;
        }
        return false;
    }

    /** Structural equality used by differential testing. */
    bool equals(const Value &other) const;

    std::string str() const;

  private:
    ValueKind kind_ = ValueKind::Unset;
    long int_ = 0;
    double float_ = 0;
    Place place_;
    const cir::Type *type_ = nullptr;
};

/** Wrap an integer to a signed/unsigned field of `bits` bits. */
inline long
wrapInt(long v, int bits, bool is_signed)
{
    if (bits >= 64)
        return v;
    const unsigned long mask = (1UL << bits) - 1;
    unsigned long u = static_cast<unsigned long>(v) & mask;
    if (is_signed && (u & (1UL << (bits - 1))))
        u |= ~mask;
    return static_cast<long>(u);
}

/**
 * A value as a long: an integer as it is, a float truncated toward
 * zero. NaN and floats outside long's range give LONG_MIN, the result
 * x86-64's cvttsd2si gives, so every float-to-integer conversion in
 * both engines is defined and keeps the value it always had there.
 */
inline long
truncatedInt(const Value &v)
{
    if (!v.isFloat())
        return v.asInt();
    double d = v.asFloat();
    // -2^63 is a long and 2^63 is not; NaN fails both comparisons.
    return d >= -0x1p63 && d < 0x1p63 ? static_cast<long>(d) : LONG_MIN;
}

/** Quantize a double to a float with `mant` mantissa bits. */
double quantizeFloat(double v, int mantissa_bits);

/**
 * Coerce a value for storage into a cell of the given declared type,
 * applying integer bitwidth wrapping and float quantization. Inline:
 * this sits on every store executed by both engines.
 */
inline Value
coerceToType(const Value &value, const cir::Type *type)
{
    using cir::TypeKind;
    if (!type)
        return value;
    switch (type->kind()) {
      case TypeKind::Bool:
        return Value::makeInt(value.truthy() ? 1 : 0, type);
      case TypeKind::Char:
        return Value::makeInt(wrapInt(truncatedInt(value), 8, true), type);
      case TypeKind::Int:
        return Value::makeInt(wrapInt(truncatedInt(value), 32, true), type);
      case TypeKind::Long:
        return Value::makeInt(truncatedInt(value), type);
      case TypeKind::FpgaInt:
      case TypeKind::FpgaUint: {
        bool is_signed = type->kind() == TypeKind::FpgaInt;
        return Value::makeInt(
            wrapInt(truncatedInt(value), type->width(), is_signed), type);
      }
      case TypeKind::Float:
        return Value::makeFloat(static_cast<float>(value.asFloat()), type);
      case TypeKind::Double:
      case TypeKind::LongDouble:
        return Value::makeFloat(value.asFloat(), type);
      case TypeKind::FpgaFloat:
        return Value::makeFloat(
            quantizeFloat(value.asFloat(), type->mantissaBits()), type);
      case TypeKind::Pointer:
        // Integer constants stored into pointer cells become (null +
        // offset) pointers, so `int *p = 0` yields a real null pointer.
        if (value.isInt())
            return Value::makePointer(
                {0, static_cast<int32_t>(value.asInt())});
        return value;
      default:
        return value;
    }
}

inline Value
coerceToType(const Value &value, const cir::TypePtr &type)
{
    return coerceToType(value, type.get());
}

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_VALUE_H
