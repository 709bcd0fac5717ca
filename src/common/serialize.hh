/**
 * @file
 * Versioned binary snapshot serialization.
 *
 * SnapWriter/SnapReader implement a little-endian, bounds-checked
 * byte-stream format used by the warmup checkpointing subsystem
 * (sim/snapshot.hh). Raw struct memcpy is never used, so the byte
 * stream is independent of padding, host endianness quirks, and
 * container implementation details.
 *
 * Every snapshotted type states its persisted fields exactly once,
 * in a public static member template
 *
 *     template <class Self, class Ar>
 *     static void snapFields(Self &self, Ar &ar);
 *
 * instantiated with (const T, SnapWriter) to save and (T, SnapReader)
 * to restore. Both archives expose the same primitives, and each one
 * called on a field writes it on the writer and reads it back on the
 * reader, so one list serves both directions:
 *
 *  - io(fields...): each field with the width of its type — bool as
 *    one byte, enums by their underlying type, unsigned integers at
 *    their own width, signed ones as i8 or i64, double as its bits,
 *    strings length-prefixed, std::array element-wise, std::pair as
 *    first then second, std::bitset as 64-bit chunks (lowest first),
 *    and any type with snapFields() recursively;
 *  - u64(x) / i64(x): a field stored wider than its in-memory type;
 *  - seq32(c) / seq64(c): a u32/u64 length prefix, then the elements;
 *    len64(c): the prefix alone (elements follow other fields);
 *  - keySorted(m): a hash map as a key-sorted u64-prefixed pair list;
 *  - echo(v, what): the writer records v, the reader asserts the
 *    stream holds the same value (configuration/geometry checks);
 *  - each(x, fn): a container whose field list takes an element
 *    codec, coding each element with fn(ar, element).
 *
 * A field list never branches on the direction. State derived from
 * the fields is rebuilt after reading by the type's public
 * afterRestore(), which the reader calls when present. Types whose
 * restore does more than read back (SlabPool re-constructs slots,
 * MemoryImage overlays a delta on a base) keep an explicit
 * save(SnapWriter &) / restore(SnapReader &) pair, which io() also
 * dispatches to.
 *
 * The format carries no per-field tags: reader and writer agree by
 * construction, the checkpoint schema version (sim/snapshot.cc)
 * guards the layout across builds, and the SIM_SNAPSHOT_FIELDS lint
 * contract below guards each list against forgotten members.
 */

#ifndef CDFSIM_COMMON_SERIALIZE_HH
#define CDFSIM_COMMON_SERIALIZE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"

/**
 * Snapshot field-count contract, checked by `tools/lint_sim`
 * (rule `snapshot-fields`): every class with a `snapFields(...)`
 * field list (or an explicit `save(...)` member) must carry
 * `SIM_SNAPSHOT_FIELDS(n)` where @p n is the number of data members
 * the class declares — including members that are deliberately
 * *not* serialized (host-only profiling state, cached stat
 * references, config-fixed geometry). Adding a field without bumping
 * the count fails the lint, which forces the author to decide
 * whether the new field belongs in the field list.
 */
#define SIM_SNAPSHOT_FIELDS(n) \
    static_assert((n) > 0, "snapshot field count must be positive")

namespace cdfsim
{

namespace snapdetail
{

template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <typename T>
inline constexpr std::size_t kBitsetBits = 0;
template <std::size_t N>
inline constexpr std::size_t kBitsetBits<std::bitset<N>> = N;

/** Integers io() can size from their type: any unsigned width, and
 *  signed only as i8/i64 (an int's stored width must be explicit). */
template <typename T>
inline constexpr bool kSizedInt =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    (std::is_unsigned_v<T> || sizeof(T) == 1 || sizeof(T) == 8);

} // namespace snapdetail

/** The default element codec of sequences and containers: io(). */
struct SnapIo
{
    template <typename Ar, typename T>
    void
    operator()(Ar &ar, T &v) const
    {
        ar.io(v);
    }
};

/** Append-only little-endian byte-stream writer. */
class SnapWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Write each field with the width of its type. */
    template <typename... T>
    void
    io(const T &...fields)
    {
        (one(fields), ...);
    }

    template <typename C, typename Each = SnapIo>
    void
    seq32(const C &c, Each fn = {})
    {
        u32(static_cast<std::uint32_t>(c.size()));
        for (const auto &e : c)
            fn(*this, e);
    }

    template <typename C, typename Each = SnapIo>
    void
    seq64(const C &c, Each fn = {})
    {
        u64(c.size());
        for (const auto &e : c)
            fn(*this, e);
    }

    template <typename C>
    void
    len64(const C &c)
    {
        u64(c.size());
    }

    /** Key-sorted, so the bytes never depend on hash order. */
    template <typename M>
    void
    keySorted(const M &m)
    {
        std::vector<std::pair<typename M::key_type,
                              typename M::mapped_type>>
            entries(m.begin(), m.end());
        std::sort(entries.begin(), entries.end());
        seq64(entries);
    }

    template <typename T>
    void
    echo(const T &v, const char *)
    {
        one(v);
    }

    template <typename T, typename Each>
    void
    each(const T &x, Each fn)
    {
        T::snapFields(x, *this, fn);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** FNV-1a over everything written so far. */
    std::uint64_t
    fnv1a() const
    {
        return fnv1a64(buf_);
    }

    /** Move the accumulated bytes out (leaves the writer empty). */
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    template <typename T>
    void
    one(const T &v)
    {
        if constexpr (requires { T::snapFields(v, *this); }) {
            T::snapFields(v, *this);
        } else if constexpr (requires {
                                 T::snapFields(v, *this, SnapIo{});
                             }) {
            T::snapFields(v, *this, SnapIo{});
        } else if constexpr (requires { v.save(*this); }) {
            v.save(*this);
        } else if constexpr (std::is_same_v<T, bool>) {
            u8(v ? 1 : 0);
        } else if constexpr (std::is_enum_v<T>) {
            one(static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_same_v<T, double>) {
            f64(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
            str(v);
        } else if constexpr (snapdetail::kIsArray<T>) {
            for (const auto &e : v)
                one(e);
        } else if constexpr (snapdetail::kIsPair<T>) {
            one(v.first);
            one(v.second);
        } else if constexpr (snapdetail::kBitsetBits<T> > 0) {
            const T mask{~std::uint64_t{0}};
            for (std::size_t lo = 0; lo < v.size(); lo += 64)
                u64(((v >> lo) & mask).to_ullong());
        } else {
            static_assert(snapdetail::kSizedInt<T>,
                          "no snapshot codec for this field type");
            if constexpr (sizeof(T) == 1)
                u8(static_cast<std::uint8_t>(v));
            else if constexpr (sizeof(T) == 2)
                u16(v);
            else if constexpr (sizeof(T) == 4)
                u32(v);
            else
                u64(static_cast<std::uint64_t>(v));
        }
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader over a byte buffer produced by SnapWriter. */
class SnapReader
{
  public:
    SnapReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit SnapReader(const std::vector<std::uint8_t> &buf)
        : SnapReader(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        SIM_ASSERT(pos_ < size_, "snapshot stream underrun at byte ",
                   pos_, " of ", size_);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo |
                                          (std::uint16_t{u8()} << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        return lo | (std::uint32_t{u16()} << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (std::uint64_t{u32()} << 32);
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }

    /** Read a field stored wider than its in-memory type. */
    template <std::integral T>
    void
    u64(T &v)
    {
        v = static_cast<T>(u64());
    }

    template <std::integral T>
    void
    i64(T &v)
    {
        v = static_cast<T>(i64());
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        SIM_ASSERT(n <= size_ - pos_,
                   "snapshot string length ", n, " overruns stream");
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Read each field back with the width of its type. */
    template <typename... T>
    void
    io(T &...fields)
    {
        (one(fields), ...);
    }

    template <typename C, typename Each = SnapIo>
    void
    seq32(C &c, Each fn = {})
    {
        resize(c, u32());
        elements(c, fn);
    }

    template <typename C, typename Each = SnapIo>
    void
    seq64(C &c, Each fn = {})
    {
        resize(c, u64());
        elements(c, fn);
    }

    template <typename C>
    void
    len64(C &c)
    {
        resize(c, u64());
    }

    template <typename M>
    void
    keySorted(M &m)
    {
        std::vector<std::pair<typename M::key_type,
                              typename M::mapped_type>>
            entries;
        seq64(entries);
        m.clear();
        m.insert(entries.begin(), entries.end());
    }

    /** Assert the stream holds @p expected (this build's value). */
    template <typename T>
    void
    echo(const T &expected, const char *what)
    {
        T got{};
        one(got);
        SIM_ASSERT(got == expected, "snapshot ", what, " is ", got,
                   " but this build has ", expected,
                   " (config mismatch?)");
    }

    template <typename T, typename Each>
    void
    each(T &x, Each fn)
    {
        T::snapFields(x, *this, fn);
        afterRestore(x);
    }

    bool done() const { return pos_ == size_; }

  private:
    template <typename T>
    static void
    afterRestore(T &x)
    {
        if constexpr (requires { x.afterRestore(); })
            x.afterRestore();
    }

    /** Resize @p c to a stored length; every element occupies at
     *  least one byte, so a length past the stream end is corrupt. */
    template <typename C>
    void
    resize(C &c, std::uint64_t n)
    {
        SIM_ASSERT(n <= size_ - pos_, "snapshot sequence length ", n,
                   " overruns stream");
        c.resize(static_cast<std::size_t>(n));
    }

    template <typename C, typename Each>
    void
    elements(C &c, Each fn)
    {
        if constexpr (std::is_same_v<C, std::vector<bool>>) {
            for (std::size_t i = 0; i < c.size(); ++i) {
                bool bit = false;
                fn(*this, bit);
                c[i] = bit;
            }
        } else {
            for (auto &e : c)
                fn(*this, e);
        }
    }

    template <typename T>
    void
    one(T &v)
    {
        if constexpr (requires { T::snapFields(v, *this); }) {
            T::snapFields(v, *this);
            afterRestore(v);
        } else if constexpr (requires {
                                 T::snapFields(v, *this, SnapIo{});
                             }) {
            T::snapFields(v, *this, SnapIo{});
            afterRestore(v);
        } else if constexpr (requires { v.restore(*this); }) {
            v.restore(*this);
        } else if constexpr (std::is_same_v<T, bool>) {
            v = u8() != 0;
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> raw{};
            one(raw);
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, double>) {
            v = f64();
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = str();
        } else if constexpr (snapdetail::kIsArray<T>) {
            for (auto &e : v)
                one(e);
        } else if constexpr (snapdetail::kIsPair<T>) {
            one(v.first);
            one(v.second);
        } else if constexpr (snapdetail::kBitsetBits<T> > 0) {
            v.reset();
            for (std::size_t lo = 0; lo < v.size(); lo += 64)
                v |= T{u64()} << lo;
        } else {
            static_assert(snapdetail::kSizedInt<T>,
                          "no snapshot codec for this field type");
            if constexpr (sizeof(T) == 1)
                v = static_cast<T>(u8());
            else if constexpr (sizeof(T) == 2)
                v = static_cast<T>(u16());
            else if constexpr (sizeof(T) == 4)
                v = static_cast<T>(u32());
            else
                v = static_cast<T>(u64());
        }
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace cdfsim

#endif // CDFSIM_COMMON_SERIALIZE_HH
