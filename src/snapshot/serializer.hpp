/**
 * @file
 * Versioned, checksummed binary serialization for simulator snapshots.
 *
 * The format is deliberately simple and self-describing enough to detect
 * corruption and misuse, without pulling in any external dependency:
 *
 *   file   := magic(8) version(u32) fingerprint(u64) section*
 *   section:= nameLen(u32) name(bytes) payloadLen(u64) payload(bytes)
 *             xxhash64(payload)(u64)
 *
 * Everything is little-endian. Doubles are stored as their raw IEEE-754
 * bit pattern so a round trip is bit-exact (this is what makes
 * restore-then-run byte-identical stats possible). Each section's
 * payload is covered by an XXH64 checksum verified on open; the header
 * carries a format version and a config fingerprint so a snapshot taken
 * under one SimConfig refuses to restore under another (see
 * docs/SNAPSHOT.md).
 *
 * The same Serializer/SectionReader pair also backs the sweep resume
 * journal (snapshot/journal.hpp), which reuses the per-record checksum
 * but has its own framing.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cgct {

/**
 * XXH64 — the canonical xxHash 64-bit digest (public-domain algorithm,
 * reimplemented here so the repo stays dependency-free). Matches the
 * reference vectors, e.g. xxhash64("", 0) == 0xEF46DB3751D8E999.
 */
std::uint64_t xxhash64(const void *data, std::size_t len,
                       std::uint64_t seed = 0);

/**
 * Streaming XXH64: feed bytes in any chunking; digest() matches the
 * one-shot xxhash64() over the concatenation. Used where the data never
 * exists as one buffer (multi-GB trace lane payloads, see
 * workload/trace.cpp). digest() does not consume the state: more
 * update() calls may follow.
 */
class Xxh64Stream {
  public:
    explicit Xxh64Stream(std::uint64_t seed = 0) { reset(seed); }

    void reset(std::uint64_t seed = 0);
    void update(const void *data, std::size_t len);
    std::uint64_t digest() const;
    std::uint64_t totalBytes() const { return total_; }

  private:
    std::uint64_t v1_, v2_, v3_, v4_;
    std::uint64_t seed_ = 0;
    std::uint64_t total_ = 0;
    std::uint8_t buf_[32];
    std::size_t buffered_ = 0;
};

/**
 * Append-only little-endian byte sink with optional sectioning.
 *
 * Primitive writers append raw LE bytes. beginSection()/endSection()
 * bracket a named, length-prefixed, checksummed payload; sections must
 * not nest. A Serializer used without sections (raw mode) is also the
 * canonical-bytes builder for fingerprints and journal records.
 */
class Serializer {
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { le(v); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }
    void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Raw IEEE-754 bit pattern — bit-exact round trip, incl. ±0/inf. */
    void f64(double v);
    /** u64 length followed by the bytes. */
    void str(const std::string &v);
    void bytes(const void *data, std::size_t len);

    void beginSection(const std::string &name);
    void endSection();

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Allocate room for @p n bytes up front (a size known from an
     *  earlier, similar buffer), so the buffer is not grown by doubling,
     *  which copies it and briefly holds both copies. */
    void reserve(std::size_t n) { buf_.reserve(n); }
    /** Move the bytes out, leaving this Serializer empty. */
    std::vector<std::uint8_t> take();

  private:
    /** One fixed-width value in one store; the host byte order is the
     *  format's (little-endian, checked at compile time). */
    template <typename T>
    void
    le(T v)
    {
        static_assert(std::endian::native == std::endian::little);
        const std::size_t at = buf_.size();
        buf_.resize(at + sizeof(T));
        std::memcpy(buf_.data() + at, &v, sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
    std::size_t payloadStart_ = 0;
    std::size_t lenFieldAt_ = 0;
    bool inSection_ = false;
};

/**
 * Cursor over one section's payload (or any raw byte range).
 *
 * The payload checksum was verified before a SectionReader is handed
 * out, so a read past the end here means a serialize/deserialize code
 * mismatch — a bug, not corruption — and fatal()s with the section name.
 */
class SectionReader {
  public:
    SectionReader(const std::uint8_t *begin, const std::uint8_t *end,
                  std::string name)
        : p_(begin), end_(end), name_(std::move(name)) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    std::string str();
    void bytes(void *out, std::size_t len);

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }
    bool atEnd() const { return p_ == end_; }
    const std::string &name() const { return name_; }

  private:
    void need(std::size_t n);

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::string name_;
};

/**
 * Loads a snapshot file, validates framing and every section checksum
 * up front, and hands out SectionReaders by name.
 */
class Deserializer {
  public:
    /**
     * Read and validate @p path. Returns an error message on any
     * problem (missing file, bad magic, unsupported version, torn
     * section, checksum mismatch); empty string on success.
     */
    std::string open(const std::string &path);

    /**
     * Validate an in-memory snapshot (same checks as open()). @p label
     * names the buffer in error messages. Used by the sampling engine,
     * whose warm-phase checkpoints never touch disk (docs/SAMPLING.md).
     * It moves each image in, so the image is freed with this
     * Deserializer.
     */
    std::string openBytes(std::vector<std::uint8_t> bytes,
                          const std::string &label);

    std::uint32_t version() const { return version_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    bool hasSection(const std::string &name) const;
    /** fatal() if the section is absent (format bug, not corruption). */
    SectionReader section(const std::string &name) const;

  private:
    struct Range {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    std::string parse(const std::string &label);

    std::vector<std::uint8_t> data_;
    std::vector<std::pair<std::string, Range>> sections_;
    std::uint32_t version_ = 0;
    std::uint64_t fingerprint_ = 0;
};

/** The 8-byte magic at offset 0 of every snapshot file. */
extern const char kSnapshotMagic[8];
/** Current snapshot format version (header field). v2: core sections
 *  gained sync_stall_cycles, and trace-replay runs store a "replay"
 *  workload section (lane cursors, lock owners, semaphore counts). */
constexpr std::uint32_t kSnapshotVersion = 2;

/**
 * Start a snapshot byte stream: write the file header into the empty
 * @p s. The caller appends the sections, and s.buffer() (or s.take())
 * is then the complete file — one buffer, never a header copied in
 * front of the sections.
 */
void beginSnapshotFile(Serializer &s, std::uint64_t fingerprint);

/** Header + a copy of the already-built @p sections, for callers that
 *  serialized the sections first. */
std::vector<std::uint8_t> makeSnapshotFile(std::uint64_t fingerprint,
                                           const Serializer &sections);

/**
 * Write @p bytes to @p path atomically (write to "<path>.tmp", fsync,
 * rename, fsync the containing directory so the new name survives power
 * loss). Returns an error message or empty string.
 */
std::string writeFileAtomic(const std::string &path,
                            const std::vector<std::uint8_t> &bytes);

/**
 * fsync the directory containing @p path, making a just-created or
 * just-renamed directory entry durable. Best-effort: some filesystems
 * refuse to open directories, so errors are ignored.
 */
void fsyncDirOf(const std::string &path);

} // namespace cgct
