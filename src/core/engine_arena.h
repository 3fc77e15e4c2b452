// Flat structure-of-arrays arena for the ShapleyEngine recursion tree.
//
// Kept per tree node, the memoized counts would be pointer-rich: a |Sat|
// CountVector (a heap vector of BigInts) and prefix/suffix partial products
// per node, next to the routing maps, so at serving scale the all-facts hot
// path would be cache-miss bound. The arena is the compiled form of the
// recursion tree (shapley_engine.cc) and the engine's only numeric core:
//
//  * Node metadata lives in index-linked parallel arrays (kind, parent,
//    child ranges into one concatenated child-id array, free-endo counters,
//    leaf polarity) — no per-node objects, no virtual dispatch.
//  * Every count-vector cell lives in ONE flat cell buffer. A logical vector
//    is a slot (offset, length, capacity) into that buffer; with 64-bit
//    limbs and |Dn| <= 192 every cell's magnitude is stored inline in its
//    40-byte BigInt slot, so a bottom-up sweep walks contiguous memory.
//    Replacing a vector reuses its range in place when the new length fits
//    and appends a fresh range otherwise (the stranded cells are tracked as
//    slack and reclaimed by CompactCells()).
//  * Nodes are kept in topological order (parents before children), so the
//    all-facts evaluation is a batched top-down sweep over dense index
//    ranges instead of per-fact recursion re-entry.
//
// The evaluation sweep exploits that the with/without perturbation of
// ValueAtLeaf propagates LINEARLY: at a component ancestor the difference
// vector picks up a convolution with the sibling context, and at a root-var
// ancestor the two complement steps cancel, leaving the same convolution
// (plus the free-fact binomial factor). Hence
//
//   sat_with - sat_without  =  sign * r[leaf],
//   r[root]  = All(global_free_endo),
//   r[child] = r[parent] (* All(parent.free_endo)) * ctx_parent[child],
//
// with sign = -1 exactly for negated leaves. One convolution sweep down the
// shared paths replaces two full root-to-leaf re-propagations (fact forced
// exogenous, fact removed) per orbit representative, and r[] is shared
// across every leaf below a common ancestor. Shapley(leaf) then assembles
// from r[leaf] alone — the exact same integers the two-propagation form
// subtracts out, so values are bit-identical to the per-fact path by
// construction.
//
// Incremental maintenance patches arena storage: leaf flips, free-counter
// moves and new-child splices re-derive the dirtied root-to-leaf path from
// per-node prefix/suffix partial products with watermark invalidation.
//
// The arena does NOT know about queries, routing or orbits: the owning
// ShapleyEngine keeps the tree's routing metadata (slice maps, stored
// subqueries, structural signatures) and drives the arena through the calls
// below. Node ids are the tree's node ids throughout.

#ifndef SHAPCQ_CORE_ENGINE_ARENA_H_
#define SHAPCQ_CORE_ENGINE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bigint.h"
#include "util/count_vector.h"
#include "util/rational.h"

namespace shapcq {

class CancelToken;  // util/cancel.h

/// Compiled SoA form of the memoized CntSat recursion tree. See the file
/// comment for the layout and the difference-propagation evaluation sweep.
class EngineArena {
 public:
  /// Mirrors ShapleyEngine's node kinds (values must stay in sync with the
  /// tree's enum; asserted at compile sites).
  enum class NodeKind : uint8_t { kGround = 0, kComponent = 1, kRootVar = 2 };

  EngineArena();

  // -------------------------------------------------------------------------
  // Compilation. AppendNode is called once per tree node, in tree-id order
  // (the arena's arrays are indexed by tree node id); `sat` / `core_sat`
  // cells are moved into the flat buffer. SealStructure fixes the root and
  // computes the topological order. After sealing, AppendNode keeps working:
  // a mutation that grew the tree absorbs its new nodes the same way (the
  // topological order recomputes lazily).
  // -------------------------------------------------------------------------

  void Reserve(size_t node_count);
  /// Pre-sizes the flat cell buffer (compilation knows the exact total |Sat|
  /// cell count up front, so the absorb pass never reallocates it).
  void ReserveCells(size_t cell_count) { cells_.reserve(cell_count); }
  void AppendNode(NodeKind kind, int parent, int child_index,
                  const std::vector<int>& children, uint32_t free_endo,
                  bool negated, CountVector sat, CountVector core_sat);
  void SealStructure(int root);

  size_t node_count() const { return kind_.size(); }
  int root() const { return root_; }

  // -------------------------------------------------------------------------
  // Reads.
  // -------------------------------------------------------------------------

  /// Materializes the node's memoized |Sat| vector (the root's feeds the
  /// engine's baseline).
  CountVector SatOf(int node) const;

  // -------------------------------------------------------------------------
  // Mutation patches (bit-identical to a fresh build's counts).
  // -------------------------------------------------------------------------

  /// Replaces a ground leaf's |Sat| after its presence state flipped.
  void SetLeafSat(int leaf, const CountVector& sat);

  /// Updates a root-var node's free-endo counter and re-derives its sat
  /// (sat = core_sat * All(free_endo)).
  void SetFreeEndo(int node, uint32_t free_endo);

  /// Appends `child` (already absorbed via AbsorbNodes) under `parent` and
  /// folds its unsat factor into the parent's core_sat/sat — the new-slice
  /// splice of an insert. Prefix partials keep their valid entries (they
  /// exclude the appended child); suffix partials reset.
  void SpliceNewChild(int parent, int child);

  /// Re-derives `parent`'s sat (and core_sat for root-var nodes) after child
  /// j's sat changed, convolving the child's new combine vector against the
  /// prefix/suffix sibling product, then shrinks the watermarks past the
  /// entries embedding child j's old vector. One step of the root-to-leaf
  /// patch walk.
  void PatchChildChanged(int parent, size_t j);

  /// Drops every cached r-vector (the difference-propagation sweep state).
  /// Every value-affecting mutation must call this: the player count or the
  /// path products changed.
  void InvalidateValues();

  // -------------------------------------------------------------------------
  // Evaluation.
  // -------------------------------------------------------------------------

  /// Shapley value of the endogenous fact at `leaf`, assembled from r[leaf]
  /// (computed and memoized along the path on demand). Bit-identical to the
  /// per-fact ShapleyViaCountSat value.
  Rational ValueAtLeaf(int leaf, size_t endo_count, size_t global_free_endo);

  /// Warms r[] along the paths of all `leaves` — level-parallel over the
  /// marked nodes when num_threads > 1, serial otherwise. Results of
  /// subsequent ValueAtLeaf calls are bit-identical at every thread count
  /// (each slot is written once, and every vector is a pure function of the
  /// built index). A non-null `cancel` token is polled at level boundaries
  /// (serial mode: per leaf); returns false when the sweep stopped early on
  /// an expired token. A partial warm is fully consistent: epoch watermarks
  /// advance only for completed slots, so cold nodes simply recompute on
  /// the next (possibly undeadlined) sweep — values stay bit-identical.
  bool WarmValuePaths(const std::vector<int>& leaves, size_t global_free_endo,
                      size_t num_threads, const CancelToken* cancel = nullptr);

  // -------------------------------------------------------------------------
  // Orbit-id cache (read by ShapleyEngine::OrbitIds and, through it, the
  // sampling tier's orbit stratification). Dropped by InvalidateValues.
  // -------------------------------------------------------------------------

  bool HasOrbitIds() const { return orbit_ids_valid_; }
  const std::vector<size_t>& CachedOrbitIds() const { return orbit_ids_; }
  void CacheOrbitIds(std::vector<size_t> ids);

  // -------------------------------------------------------------------------
  // Accounting and invariants.
  // -------------------------------------------------------------------------

  /// Heap footprint of the arena: a handful of buffer-capacity sums (plus
  /// the heap spill of any cell wider than BigInt's inline storage, i.e.
  /// only for |Dn| > 192). O(cells) integer reads, no tree walk.
  size_t ApproxMemoryBytes() const;

  /// Cells stranded by out-of-place vector replacements, in units of cells.
  size_t SlackCells() const { return slack_cells_; }

  /// Rewrites the cell buffer dense (every live slot packed back to back,
  /// slack dropped). Values are untouched.
  void CompactCells();

  /// Aborts (SHAPCQ_CHECK) unless the structural invariants hold: parallel
  /// arrays equal-sized, child ranges well-formed and mutually consistent
  /// with parent/child_index, topological order covering every node with
  /// parents before children, and every live slot range inside the buffer
  /// with len <= cap. Test hook; O(nodes + slots).
  void CheckInvariants() const;

 private:
  struct Slot {
    uint32_t offset = 0;
    uint32_t len = 0;
    uint32_t cap = 0;
  };

  // --- cell store ---
  int NewSlot(size_t len);
  int NewSlotFrom(std::vector<BigInt> cells);
  // Moves `cells` into the slot, allocating it (or a wider range) on demand.
  // In place whenever the new length fits the slot's capacity.
  void StoreSlotAt(int32_t& slot_ref, std::vector<BigInt> cells);
  // Parallel-phase variant: the slot must exist with len pre-set to
  // cells.size() (the warm sweep's serial prepass guarantees it), so the
  // store never moves the buffer under a concurrent reader.
  void FillSlotInPlace(int32_t slot, std::vector<BigInt> cells);
  // Serial-prepass half of FillSlotInPlace: allocates the slot (or re-ranges
  // an existing one whose capacity is too small) and pins len = `len`.
  void EnsureSlotLen(int32_t& slot_ref, size_t len);
  // Convolves slot `a` with the caller-scratch range `b` (never inside the
  // cell buffer) straight into `dst_ref` — no temporary vector, no
  // per-cell moves. `dst_ref` must not be `a` (re-ranged on demand; a's
  // cells are resolved after the possible buffer growth). The mirror
  // overload keeps the scratch range on the left so the accumulation
  // order matches CountVector::Convolve exactly on both operand orders.
  void ConvolveSlotWithInto(int32_t& dst_ref, int32_t a_slot, const BigInt* b,
                            size_t b_len);
  void ConvolveWithSlotInto(int32_t& dst_ref, const BigInt* a, size_t a_len,
                            int32_t b_slot);
  const BigInt* SlotCells(int32_t slot) const {
    return cells_.data() + slots_[slot].offset;
  }
  size_t SlotLen(int32_t slot) const { return slots_[slot].len; }

  // --- combine/partial helpers ---
  // Child j's combine vector: its sat for component parents, its complement
  // against All for root-var parents.
  std::vector<BigInt> CombineOf(int parent, size_t j) const;
  void EnsurePartialsAllocated(int parent);
  // prefix[j] = combine[0] * ... * combine[j-1]; suffix[i] likewise from the
  // right, each valid up to its watermark.
  void PrefixUpTo(int parent, size_t j);
  void SuffixFrom(int parent, size_t i);
  std::vector<BigInt> SiblingCombine(int parent, size_t j);

  // --- evaluation sweep (serial half; the parallel half lives in
  // WarmValuePaths) ---
  void EnsureR(int node, size_t global_free_endo);
  void EnsureRFree(int node, size_t global_free_endo);
  void EnsureTopo();
  void RecomputeTopo();

  // --- node SoA (indexed by tree node id) ---
  std::vector<uint8_t> kind_;
  std::vector<int32_t> parent_;
  std::vector<int32_t> child_index_;
  std::vector<int32_t> child_first_;  // into children_, -1 when childless
  std::vector<int32_t> child_count_;
  std::vector<int32_t> children_;  // concatenated child-id lists
  std::vector<uint32_t> free_endo_;
  std::vector<uint8_t> negated_;
  std::vector<int32_t> topo_;   // parents before children (root first)
  std::vector<int32_t> depth_;  // distance from the root
  bool topo_dirty_ = false;
  int32_t root_ = -1;

  // --- flat cell buffer and per-node slots ---
  std::vector<BigInt> cells_;
  std::vector<Slot> slots_;
  size_t slack_cells_ = 0;
  std::vector<int32_t> sat_slot_;
  std::vector<int32_t> core_slot_;  // -1 for non-root-var nodes

  // Partial-product slot ids, lazily sized child_count+1 per node (empty
  // until the first sibling product is needed). Watermarks:
  // prefix[0..prefix_valid] and suffix[suffix_valid..m] are built; a splice
  // grows the lists, keeping the still-valid prefix entries.
  std::vector<std::vector<int32_t>> prefix_slots_;
  std::vector<std::vector<int32_t>> suffix_slots_;
  std::vector<uint32_t> prefix_valid_;
  std::vector<uint32_t> suffix_valid_;

  // Difference-propagation vectors, valid iff the epoch matches epoch_.
  // rfree_slot_ aliases r_slot_ when the free-endo factor is the identity.
  std::vector<int32_t> r_slot_;
  std::vector<int32_t> rfree_slot_;
  std::vector<uint32_t> r_epoch_;
  std::vector<uint32_t> rfree_epoch_;
  uint32_t epoch_ = 1;

  std::vector<size_t> orbit_ids_;
  bool orbit_ids_valid_ = false;
};

}  // namespace shapcq

#endif  // SHAPCQ_CORE_ENGINE_ARENA_H_
