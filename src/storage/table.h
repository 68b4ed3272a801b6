// Columnar chunked tables, immutable published table snapshots, and
// per-table delta logs.
//
// This is the storage layer of the in-memory backend that stands in for the
// paper's PostgreSQL instance. Layout follows Sec. 7.1: data is stored in a
// columnar representation for horizontal chunks of a table ("data chunks").
// Every update statement appends signed delta records stamped with the
// statement's snapshot version, which is what IMP later fetches to maintain
// sketches ("we extract the delta between the current version of the
// database and the database instance at the original time of capture").
//
// Concurrency model (the lock-free read path):
//
//   Readers never lock. Every Table publishes an immutable, epoch-stamped
//   TableSnapshot via an RCU-style atomic shared_ptr swap — the same design
//   the middleware uses for SketchSnapshots, pushed down into storage. A
//   reader pins the snapshot (one atomic load) and scans chunks, zone maps
//   and lazily built index shards that are guaranteed never to change under
//   it. Reclamation is epoch-based through the pins themselves: an old
//   snapshot (and any chunk only it references) is freed exactly when the
//   last ReadView / pinned pointer drops it — a writer never waits for or
//   even observes readers.
//
//   Index lifetime: indexes are chunk-granular immutable shards
//   (storage/snapshot_index.h) cached on the DataChunk they index. A
//   snapshot's per-column index is an assembly of shard pointers, one per
//   chunk, built lazily on first probe; chunks already carrying a shard
//   (because a predecessor snapshot probed them) are reused as-is, so a
//   publication that appended a handful of rows re-indexes only the COW
//   tail — O(delta rows), not O(table rows). Shards die with their chunk
//   via the same epoch/pin reclamation as the data.
//
//   Writers are serialized per table by the Database's write stripe (one
//   mutex per table, never taken by readers). Appends copy-on-write the
//   tail chunk when a published snapshot still shares it, so published
//   chunk data is physically immutable. A DELETE (or an UPDATE's delete
//   half) replaces only the chunks that lose rows, each by a fresh copy of
//   its survivors; every other chunk — with its zone map and index shards —
//   is shared unchanged into the next snapshot. PublishSnapshot() then
//   swaps in a fresh snapshot whose epoch strictly increases — the
//   monotonicity witness tests assert.
#ifndef IMP_STORAGE_TABLE_H_
#define IMP_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "storage/column_vector.h"
#include "storage/delta_log.h"
#include "storage/snapshot_index.h"

namespace imp {

/// One horizontal chunk of a table in columnar layout. Each chunk keeps a
/// zone map (per-column min/max, [32] in the paper) so scans with range
/// predicates — in particular the sketch use-rewrite's fragment ranges —
/// can skip whole chunks. This is the physical-design hook that makes
/// provenance-based data skipping actually skip data in our backend.
///
/// Chunks referenced by a published TableSnapshot are immutable; the write
/// path clones a shared tail chunk before appending (copy-on-write).
class DataChunk {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  /// Minimum rows before a snapshot-shared tail chunk is sealed instead of
  /// cloned on the next append (see Table::AppendRow). Bounds the
  /// copy-on-write cost of a single-row statement to one ≤kSealThreshold
  /// clone while keeping chunks at least this full.
  static constexpr size_t kSealThreshold = 256;

  /// An empty chunk with one column vector per schema column, each
  /// committed to its column's type.
  explicit DataChunk(const Schema& schema);

  /// Copy the row data (and its inline zone accumulators) but NOT the shard
  /// cache: a COW clone is a fresh, writer-private chunk whose contents
  /// will diverge immediately.
  DataChunk(const DataChunk& other)
      : columns_(other.columns_), num_rows_(other.num_rows_) {}
  DataChunk& operator=(const DataChunk&) = delete;

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool Full() const { return num_rows_ >= kDefaultCapacity; }
  /// Append a row already checked by ConformRows.
  void AppendRow(const Tuple& row);
  /// Value of column `col` in row `row` (bounds-checked in debug builds).
  /// Reboxes typed cells — by value; use column() for the unboxed payload.
  Value At(size_t row, size_t col) const {
    IMP_DCHECK(row < num_rows_ && col < columns_.size());
    return columns_[col].GetValue(row);
  }
  /// Materialize row `row` as a tuple.
  Tuple GetRow(size_t row) const;

  /// Materialize the selected rows column-at-a-time (ascending row order —
  /// the same order a GetRow-per-set-bit loop would produce).
  std::vector<Tuple> GatherRows(const BitVector& sel) const;

  /// A writer-private copy of the rows `erased` does not select, column by
  /// column and unboxed (ColumnVector::CopyRows): zone accumulators, null
  /// bitmaps and dictionaries are rebuilt from the survivors; no shards.
  std::shared_ptr<DataChunk> Without(const BitVector& erased) const;

  const ColumnVector& column(size_t col) const { return columns_[col]; }

  /// Zone-map entry of a column: min/max over non-null values; `valid` is
  /// false when the column holds no non-null values yet.
  struct ZoneEntry {
    Value min;
    Value max;
    bool valid = false;
  };
  /// Built on demand from the column's inline min/max accumulators (one
  /// columnar pass shared with the payload append — rows are not re-boxed).
  ZoneEntry zone(size_t col) const;

  /// Lazily build (or fetch the cached) point / ordered index shard for
  /// `col`. The returned shard is immutable and may be shared by any number
  /// of snapshots; `*built_now` reports whether THIS call materialized it
  /// (the O(delta)-maintenance accounting hook). Thread-safe: concurrent
  /// builders are serialized on the chunk's shard mutex. Only valid on
  /// chunks reachable from a published snapshot (physically immutable).
  std::shared_ptr<const HashShard> HashShardFor(size_t col,
                                                bool* built_now) const;
  std::shared_ptr<const SortedShard> SortedShardFor(size_t col,
                                                    bool* built_now) const;
  /// The ordered shard for `col` if some probe already materialized it,
  /// else nullptr — never builds. Lets zone-filter refinement use exact
  /// emptiness checks opportunistically without paying a build.
  std::shared_ptr<const SortedShard> SortedShardIfBuilt(size_t col) const;

  /// Bytes held by materialized index shards on this chunk.
  size_t IndexBytes() const;

  size_t MemoryBytes() const;

 private:
  DataChunk(std::vector<ColumnVector> columns, size_t num_rows)
      : columns_(std::move(columns)), num_rows_(num_rows) {}

  std::vector<ColumnVector> columns_;
  size_t num_rows_;
  /// Shard cache. Guards the maps only; the shards themselves are
  /// immutable. Leaf lock (acquired under a snapshot's index_mu_ during
  /// assembly; shard builds take no further locks).
  mutable std::mutex shard_mu_;
  mutable std::map<size_t, std::shared_ptr<const HashShard>> hash_shards_;
  mutable std::map<size_t, std::shared_ptr<const SortedShard>> sorted_shards_;
};

class Table;

/// The write-boundary type check every stored row passes (Database's
/// BulkLoad and StageInsert run it before anything is appended): a row
/// must have one cell per column, each NULL or of its column's type, except
/// that an INT widens into a DOUBLE column. Anything else fails with
/// InvalidArgument. When a cell widens, `*widened` receives the converted
/// copy of `rows` to store instead; otherwise it is left empty and `rows`
/// is stored as is (no copy).
Status ConformRows(const Schema& schema, const std::vector<Tuple>& rows,
                   std::vector<Tuple>* widened);

/// Cumulative per-table index maintenance / probe counters. Snapshots are
/// const on the read path, so the counters live on the Table and are
/// atomics (relaxed; they are statistics, not synchronization).
struct TableIndexStats {
  std::atomic<uint64_t> shards_built{0};   ///< shards materialized
  std::atomic<uint64_t> shards_reused{0};  ///< carried forward from a chunk's cache
  std::atomic<uint64_t> point_probes{0};
  std::atomic<uint64_t> range_probes{0};
};

/// The immutable, epoch-stamped published state of one table — the storage
/// twin of the middleware's SketchSnapshot. A pinned snapshot is
/// self-consistent forever: publication swaps the Table's pointer, it never
/// mutates a snapshot that readers may hold. All read-side table access
/// (query execution, sketch capture, delta-join delegation) goes through a
/// snapshot; nothing on this class takes a table or session lock.
class TableSnapshot {
 public:
  /// `warm_hash_cols` / `warm_sorted_cols` name the columns the predecessor
  /// snapshot had indexed: the publication path passes them so index
  /// availability (HasIndex / HasRangeIndex) carries forward across
  /// generations and the first probe on the new snapshot reassembles from
  /// the chunks' cached shards in O(delta).
  TableSnapshot(const Table* table,
                std::vector<std::shared_ptr<const DataChunk>> chunks,
                size_t num_rows, uint64_t version, uint64_t epoch,
                std::vector<size_t> warm_hash_cols = {},
                std::vector<size_t> warm_sorted_cols = {})
      : table_(table),
        chunks_(std::move(chunks)),
        num_rows_(num_rows),
        version_(version),
        epoch_(epoch),
        warm_hash_cols_(std::move(warm_hash_cols)),
        warm_sorted_cols_(std::move(warm_sorted_cols)) {}

  TableSnapshot(const TableSnapshot&) = delete;
  TableSnapshot& operator=(const TableSnapshot&) = delete;

  const std::string& table_name() const;
  const Schema& schema() const;

  size_t num_rows() const { return num_rows_; }
  const std::vector<std::shared_ptr<const DataChunk>>& chunks() const {
    return chunks_;
  }

  /// Version of the last statement that modified the table as of this
  /// snapshot (the table's delta-log watermark at publication; 0 when the
  /// table was never updated). A sketch valid at version v is fresh
  /// against this snapshot iff version() <= v — the wait-free staleness
  /// verdict that replaced the delta-log probe under a read session.
  uint64_t version() const { return version_; }

  /// Publication sequence number, strictly increasing per table — the
  /// monotonicity witness concurrency tests observe.
  uint64_t epoch() const { return epoch_; }

  /// Invoke `fn` on every row (materializing row tuples chunk by chunk).
  void ForEachRow(const std::function<void(const Tuple&)>& fn) const;

  /// Min / max of an integer or double column; used to build range
  /// partitions covering the whole domain.
  std::pair<Value, Value> ColumnMinMax(size_t col) const;

  /// All values of a column (for equi-depth histogram construction).
  std::vector<Value> ColumnValues(size_t col) const;

  /// Position of a row in the snapshot's chunked storage.
  struct RowLoc {
    uint32_t chunk = 0;
    uint32_t row = 0;
  };

  /// Probe the point index on `col` for rows with value `v`, in
  /// chunk-ascending / row-ascending order (the emission order a full scan
  /// would produce). The per-chunk shards are assembled lazily on first
  /// use (an access-method cache, so logically const) and belong to THIS
  /// snapshot's chunks — they can never go stale or point into rows the
  /// snapshot does not contain. Safe from any number of concurrent
  /// readers: assembly is serialized on index_mu_, steady-state probes
  /// take the shared side.
  std::vector<RowLoc> IndexProbe(size_t col, const Value& v) const;
  /// Callback form of IndexProbe for hot paths (no RowLoc vector built).
  void ForEachIndexMatch(size_t col, const Value& v,
                         const std::function<void(const RowLoc&)>& fn) const;

  /// Probe the ordered index on `col` for rows with lo <= value <= hi
  /// (both bounds inclusive), in chunk-ascending / row-ascending order.
  /// NULL rows never match, matching SQL comparison semantics.
  std::vector<RowLoc> IndexRangeProbe(size_t col, const Value& lo,
                                      const Value& hi) const;
  /// General form: null bound pointer = unbounded side, inclusivity flags
  /// select <= / < per bound.
  void ForEachIndexRangeMatch(size_t col, const Value* lo, bool lo_inclusive,
                              const Value* hi, bool hi_inclusive,
                              const std::function<void(const RowLoc&)>& fn) const;

  /// True once a point index on `col` is available: assembled by a probe on
  /// this snapshot, or carried forward warm from the predecessor.
  bool HasIndex(size_t col) const;
  /// Same for the ordered (range-capable) index.
  bool HasRangeIndex(size_t col) const;

  /// Columns with an available point / ordered index (assembled ∪ warm);
  /// the publication path passes these to the successor snapshot so
  /// availability survives generations. Sorted, deduplicated.
  std::vector<size_t> IndexedHashColumns() const;
  std::vector<size_t> IndexedSortedColumns() const;

  /// Bytes held by materialized index shards on this snapshot's chunks
  /// (shared shards are counted once per snapshot).
  size_t IndexBytes() const;

  size_t MemoryBytes() const;

 private:
  using HashShardVec = std::vector<std::shared_ptr<const HashShard>>;
  using SortedShardVec = std::vector<std::shared_ptr<const SortedShard>>;
  /// Assemble (or fetch) the per-chunk shard vector for `col`, counting
  /// built vs reused shards into the owning table's TableIndexStats.
  const HashShardVec& HashShards(size_t col) const;
  const SortedShardVec& SortedShards(size_t col) const;

  const Table* table_;  ///< name/schema only; the Database outlives views
  std::vector<std::shared_ptr<const DataChunk>> chunks_;
  size_t num_rows_;
  uint64_t version_;
  uint64_t epoch_;
  /// Columns the predecessor snapshot had indexed (availability only; the
  /// shards themselves live on the shared chunks). Immutable after ctor.
  std::vector<size_t> warm_hash_cols_;
  std::vector<size_t> warm_sorted_cols_;
  /// Guards the assembly maps against concurrent lazy assembly;
  /// steady-state probes only take the shared side. Map nodes are stable,
  /// so a returned reference outlives the lock.
  mutable std::shared_mutex index_mu_;
  mutable std::map<size_t, HashShardVec> hash_assemblies_;
  mutable std::map<size_t, SortedShardVec> sorted_assemblies_;
};

/// A base table: schema + chunks + append-only delta log + the published
/// snapshot. The mutating members and the writer-side accessors below
/// require the caller to hold the table's write stripe
/// (Database::WriteSession(table)); Snapshot() is the lock-free read side.
class Table {
 public:
  /// Every column of `schema` must carry a type (Database::CreateTable
  /// rejects untyped columns).
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // --- Read side (lock-free) ----------------------------------------------

  /// Pin the current published snapshot (never null; an empty snapshot is
  /// published at construction). One atomic load, safe from any thread.
  std::shared_ptr<const TableSnapshot> Snapshot() const {
    return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  }

  /// Delta log access (used by Database::ScanDelta). Readers see only the
  /// published prefix, wait-free; records staged by AppendDelta become
  /// visible at the next PublishDeltas().
  const DeltaLog& delta_log() const { return delta_log_; }

  // --- Writer side (caller holds the table's write stripe) ----------------

  size_t NumRows() const { return num_rows_; }
  const std::vector<std::shared_ptr<DataChunk>>& chunks() const {
    return chunks_;
  }

  /// Append a row to the base data (does not touch the delta log; the
  /// Database wrapper records deltas with version stamps). Clones the tail
  /// chunk first when a published snapshot still shares it. The row must
  /// already have passed ConformRows.
  void AppendRow(const Tuple& row);

  /// Erase the rows `selection` picks: one bitmap per chunk of chunks(), of
  /// at most that chunk's num_rows() bits (exec's SelectRows computes it
  /// under the same stripe hold). A chunk with no bit set stays as it is —
  /// the same pointer, zone map and index shards; a chunk that loses rows
  /// is replaced by DataChunk::Without, or dropped when none survive.
  /// Returns the erased rows in scan order (chunk by chunk, ascending),
  /// the only rows boxed. Pinned snapshots keep the replaced chunks alive.
  std::vector<Tuple> EraseRows(const std::vector<BitVector>& selection);

  /// Stage one record into the log's unpublished tail (the Database
  /// wrapper stamps versions and publishes per statement or batch).
  void AppendDelta(DeltaRecord rec) { delta_log_.Append(std::move(rec)); }
  /// Publish every staged record (the statement(s) are fully applied).
  void PublishDeltas() { delta_log_.Publish(); }
  /// Drop delta records at or below `version` (log truncation once every
  /// sketch has been maintained past that point). Unlike the writer API
  /// this MAY be called without the stripe — the log serializes
  /// truncation against its writer internally.
  void TruncateDeltaLog(uint64_t version) { delta_log_.Truncate(version); }

  /// Publish the writer's current chunks as the next immutable snapshot,
  /// stamped with the delta log's published watermark and epoch + 1. The
  /// tail chunk becomes shared with the snapshot (the next append clones
  /// it). Old snapshots stay alive while pinned and are reclaimed with
  /// the last pin.
  void PublishSnapshot();

  /// Epoch of the currently published snapshot (tests / introspection).
  uint64_t SnapshotEpoch() const { return Snapshot()->epoch(); }

  /// Cumulative index shard / probe counters (updated by snapshots on the
  /// const read path; atomics, any thread).
  TableIndexStats& index_stats() const { return index_stats_; }

  size_t MemoryBytes() const;

  /// The table's write stripe (Database::WriteSession locks it).
  std::mutex& write_stripe() const { return stripe_mu_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::shared_ptr<DataChunk>> chunks_;
  size_t num_rows_ = 0;
  uint64_t snapshot_epoch_ = 0;  ///< writer-side; last published epoch
  DeltaLog delta_log_;
  mutable TableIndexStats index_stats_;
  mutable std::mutex stripe_mu_;
  /// The published snapshot (atomic shared_ptr swap; see class comment).
  std::shared_ptr<const TableSnapshot> snapshot_;
};

}  // namespace imp

#endif  // IMP_STORAGE_TABLE_H_
