#include "core/shapley_engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/atom_pattern.h"
#include "core/count_sat.h"
#include "core/engine_arena.h"
#include "core/shapley.h"
#include "query/analysis.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/combinatorics.h"
#include "util/thread_pool.h"

namespace shapcq {

namespace {

// Per-atom lists of arena indices: the recursion's working set. Slicing
// copies 32-bit indices, never Tuples.
using IndexLists = std::vector<std::vector<uint32_t>>;

}  // namespace

// ---------------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------------

struct ShapleyEngine::Impl {
  // One node of the CntSat recursion tree. BuildNode computes sat/core_sat
  // bottom-up; AbsorbNodeIntoArena then moves them into the flat arena, which
  // holds every count vector from there on. What stays is the routing
  // metadata incremental maintenance needs to steer an inserted fact from
  // the root to its leaf (or to build a fresh subtree for a root value the
  // database has not seen before).
  struct Node {
    enum class Kind { kGround, kComponent, kRootVar };
    Kind kind = Kind::kGround;
    int parent = -1;       // node id, -1 for the root
    int child_index = -1;  // position within parent's children
    std::vector<int> children;
    size_t free_endo = 0;  // kRootVar: endo facts inconsistent at the root var
    bool negated = false;  // kGround: the atom's polarity
    CountVector sat = CountVector::Zero(0);  // |Sat| of this subtree
    int sig = -1;          // hash-consed structural signature

    // --- incremental-maintenance state ---
    // kRootVar: sat before the All(free_endo) factor (the arena keeps it so
    // free-count changes and new-child splices re-derive sat without
    // re-convolving all children).
    CountVector core_sat;
    // kGround: presence state of the leaf's (unique) matching fact.
    GroundFactState leaf_state = GroundFactState::kAbsent;
    // kGround: original atom index this leaf grounds.
    size_t atom_id = 0;
    // kRootVar: the slicing variable and, per local atom, its positions.
    VarId root_var = -1;
    std::vector<std::vector<size_t>> root_positions;
    // kRootVar: root value id -> child node (the slice map, kept live).
    std::map<int32_t, int> child_by_value;
    // kRootVar: the node's pre-slicing subquery and local->original atom
    // indices, for building subtrees of unseen root values.
    CQ subquery;
    std::vector<size_t> atom_ids;
    // kComponent: original atom index -> child owning that atom.
    std::unordered_map<size_t, int> child_by_atom;
  };

  // An atom of the query, precompiled for fact matching. Relations are
  // matched by name: a relation may enter the schema only after Build (the
  // first insert into a previously fact-free relation declares it) — which
  // is also why the atom's arity is kept, to validate such inserts before
  // the schema can.
  struct QueryAtom {
    std::string relation;
    size_t arity = 0;
    AtomPattern pattern;
  };

  const Database* db = nullptr;
  size_t endo_count = 0;
  size_t global_free_endo = 0;  // endo facts matching no atom pattern
  std::vector<Node> nodes;
  int root = -1;
  CountVector baseline = CountVector::Zero(0);
  std::vector<QueryAtom> atoms;

  // Numeric core: every count vector (memoized sat/core_sat, partial
  // products, evaluation state) lives in the flat arena; the tree nodes
  // above keep routing metadata only.
  EngineArena arena;

  // Shared fact arena: matched facts as indices, queried via *db. Append-
  // only; entries of deleted facts go stale but are never referenced again
  // (leaves and slices are patched to forget them).
  std::vector<FactId> arena_fact;
  std::vector<bool> arena_endo;

  // Per endogenous fact (endo-index order): its ground leaf (-1 for null
  // players) and its orbit key — the hash-consed signatures along the
  // leaf-to-root path. Null players get the empty key. Mutations keep
  // leaf_of_endo exact and regenerate the keys lazily (orbit_keys_dirty).
  std::vector<int> leaf_of_endo;
  std::vector<std::vector<int>> orbit_key_of_endo;
  bool orbit_keys_dirty = false;

  // Where each fact lives in the index: its ground leaf (matched facts), or
  // the kRootVar node counting it as free (endogenous inconsistent facts).
  // Endogenous facts in neither map are globally free; exogenous facts in
  // neither map have no effect on any count.
  std::unordered_map<FactId, int> leaf_of_fact;
  std::unordered_map<FactId, int> free_node_of_fact;

  std::unordered_map<std::string, int> sig_interner;
  std::map<std::vector<int>, Rational> orbit_values;  // memoized per orbit
  Stats stats;

  // Build-time cancellation: set only for the duration of Build()'s
  // BuildNode recursion (incremental subtree builds inside a mutation are
  // never cancelled — each mutation is atomic w.r.t. cancellation). Once
  // the token expires, build_cancelled makes every remaining recursion step
  // return a placeholder leaf immediately, so the unwind is prompt; Build()
  // then discards the whole engine.
  const CancelToken* build_cancel = nullptr;
  bool build_cancelled = false;

  int Intern(const std::string& canonical) {
    return sig_interner
        .emplace(canonical, static_cast<int>(sig_interner.size()))
        .first->second;
  }

  int AddNode(Node node) {
    nodes.push_back(std::move(node));
    return static_cast<int>(nodes.size()) - 1;
  }

  int BuildNode(const CQ& q, IndexLists lists,
                const std::vector<size_t>& atom_ids);
  void AbsorbNodeIntoArena(int node_id);
  void ResignNode(int node_id);
  const Rational& OrbitValue(size_t endo_index);
  void RefreshOrbitKeysIfDirty();
  void ApplyInsert(FactId fact);
  void RouteInsert(int node_id, uint32_t arena_index, size_t atom_id);
  void ApplyDelete(FactId fact, bool endo, size_t endo_idx);
  void PatchAncestors(int dirty);
  void FinishMutation();
};

// ---------------------------------------------------------------------------
// Structural signatures (hash-consed; recomputed along dirtied paths)
// ---------------------------------------------------------------------------

// Re-derives the node's canonical signature from its current state and its
// children's (already current) signatures, and interns it. Used both by the
// initial bottom-up build and by mutation patches walking a dirty path.
void ShapleyEngine::Impl::ResignNode(int node_id) {
  Node& node = nodes[node_id];
  std::string canonical;
  switch (node.kind) {
    case Node::Kind::kGround:
      canonical = "G|" + std::to_string(node.negated ? 1 : 0) + "|" +
                  std::to_string(static_cast<int>(node.leaf_state));
      break;
    case Node::Kind::kComponent:
    case Node::Kind::kRootVar: {
      std::vector<int> child_sigs;
      child_sigs.reserve(node.children.size());
      for (int child : node.children) child_sigs.push_back(nodes[child].sig);
      std::sort(child_sigs.begin(), child_sigs.end());
      canonical = node.kind == Node::Kind::kComponent
                      ? "C"
                      : "R|f" + std::to_string(node.free_endo);
      for (int sig : child_sigs) canonical += "|" + std::to_string(sig);
      break;
    }
  }
  node.sig = Intern(canonical);
}

// ---------------------------------------------------------------------------
// Tree construction (mirrors CoreCount in count_sat.cc; runs at Build and,
// incrementally, whenever an insert opens a subtree for an unseen root value)
// ---------------------------------------------------------------------------

int ShapleyEngine::Impl::BuildNode(const CQ& q, IndexLists lists,
                                   const std::vector<size_t>& atom_ids) {
  SHAPCQ_CHECK(q.atom_count() == lists.size());
  SHAPCQ_CHECK(q.atom_count() == atom_ids.size());

  // Cancelled build: synthesize an inert leaf so every pending ancestor
  // finishes constructing with its invariants intact (Build() throws the
  // whole tree away afterwards). Numeric content is irrelevant — no value
  // is ever served from a cancelled build.
  if (build_cancel != nullptr &&
      (build_cancelled || build_cancel->Expired())) {
    build_cancelled = true;
    Node node;
    node.kind = Node::Kind::kGround;
    node.sat = GroundLeafSat(/*negated=*/false, GroundFactState::kAbsent);
    const int id = AddNode(std::move(node));
    ResignNode(id);
    return id;
  }

  // Disconnected subquery: one child per variable-connected component.
  const auto components = AtomComponents(q);
  if (components.size() > 1) {
    std::vector<int> children;
    std::unordered_map<size_t, int> child_by_atom;
    for (const auto& component : components) {
      CQ sub = q.Restrict(component);
      IndexLists sub_lists;
      std::vector<size_t> sub_atom_ids;
      sub_lists.reserve(component.size());
      sub_atom_ids.reserve(component.size());
      for (size_t index : component) {
        sub_lists.push_back(std::move(lists[index]));
        sub_atom_ids.push_back(atom_ids[index]);
      }
      const int child = BuildNode(sub, std::move(sub_lists), sub_atom_ids);
      for (size_t index : component) {
        child_by_atom[atom_ids[index]] = child;
      }
      children.push_back(child);
    }
    Node node;
    node.kind = Node::Kind::kComponent;
    node.children = children;
    node.child_by_atom = std::move(child_by_atom);
    node.sat = CountVector();  // identity of Convolve
    for (int child : children) {
      node.sat.ConvolveWith(nodes[child].sat);
    }
    const int id = AddNode(std::move(node));
    for (size_t i = 0; i < children.size(); ++i) {
      nodes[children[i]].parent = id;
      nodes[children[i]].child_index = static_cast<int>(i);
    }
    ResignNode(id);
    return id;
  }

  if (q.UsedVars().empty()) {
    // Connected and variable-free: a single ground atom (Lemma 3.2 base
    // case, extended for negation).
    SHAPCQ_CHECK(q.atom_count() == 1);
    const std::vector<uint32_t>& list = lists[0];
    SHAPCQ_CHECK_MSG(list.size() <= 1,
                     "ground atom with more than one matching fact");
    Node node;
    node.kind = Node::Kind::kGround;
    node.negated = q.atom(0).negated;
    node.atom_id = atom_ids[0];
    node.leaf_state = GroundFactState::kAbsent;
    if (!list.empty()) {
      node.leaf_state = arena_endo[list[0]] ? GroundFactState::kEndogenous
                                            : GroundFactState::kExogenous;
    }
    node.sat = GroundLeafSat(node.negated, node.leaf_state);
    const int id = AddNode(std::move(node));
    ResignNode(id);
    if (!list.empty()) {
      const FactId fact = arena_fact[list[0]];
      leaf_of_fact[fact] = id;
      if (arena_endo[list[0]]) leaf_of_endo[db->endo_index(fact)] = id;
    }
    return id;
  }

  // Connected with variables: slice by the root variable's value.
  std::optional<VarId> rootvar = FindRootVariable(q);
  SHAPCQ_CHECK_MSG(rootvar.has_value(),
                   "connected hierarchical subquery lacks a root variable");

  std::vector<std::vector<size_t>> root_positions(q.atom_count());
  for (size_t i = 0; i < q.atom_count(); ++i) {
    const Atom& atom = q.atom(i);
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      if (atom.terms[pos].IsVar() && atom.terms[pos].var == *rootvar) {
        root_positions[i].push_back(pos);
      }
    }
    SHAPCQ_CHECK(!root_positions[i].empty());
  }

  // Facts with unequal values at the root positions can join nothing: free.
  // Their endogenous members are null players — they stay leaf-less and the
  // node only remembers their count (an All(free_endo) convolution factor).
  std::map<int32_t, IndexLists> slices;
  size_t free_endo = 0;
  std::vector<FactId> free_facts;
  for (size_t i = 0; i < q.atom_count(); ++i) {
    for (uint32_t index : lists[i]) {
      const Tuple& tuple = db->tuple_of(arena_fact[index]);
      // shapcq::Value spelled out: inside ShapleyEngine's scope the bare
      // name resolves to the Value() member function.
      const shapcq::Value root_value = tuple[root_positions[i][0]];
      bool consistent = true;
      for (size_t pos : root_positions[i]) {
        if (!(tuple[pos] == root_value)) consistent = false;
      }
      if (!consistent) {
        if (arena_endo[index]) {
          ++free_endo;
          free_facts.push_back(arena_fact[index]);
        }
        continue;
      }
      auto [it, inserted] = slices.try_emplace(root_value.id);
      if (inserted) it->second.resize(q.atom_count());
      it->second[i].push_back(index);
    }
  }

  std::vector<int> children;
  std::map<int32_t, int> child_by_value;
  CountVector unsat_all;  // identity; grows over the slice universes
  for (auto& [value_id, slice_lists] : slices) {
    CQ sliced = q.Substitute(*rootvar, shapcq::Value{value_id});
    const int child = BuildNode(sliced, std::move(slice_lists), atom_ids);
    children.push_back(child);
    child_by_value[value_id] = child;
    unsat_all.ConvolveWith(nodes[child].sat.ComplementAgainstAll());
  }

  Node node;
  node.kind = Node::Kind::kRootVar;
  node.children = children;
  node.free_endo = free_endo;
  node.core_sat = CountVector::All(unsat_all.universe_size()) - unsat_all;
  node.sat = node.core_sat.Convolve(CountVector::All(free_endo));
  node.root_var = *rootvar;
  node.root_positions = std::move(root_positions);
  node.child_by_value = std::move(child_by_value);
  node.subquery = q;
  node.atom_ids = atom_ids;
  const int id = AddNode(std::move(node));
  for (size_t i = 0; i < children.size(); ++i) {
    nodes[children[i]].parent = id;
    nodes[children[i]].child_index = static_cast<int>(i);
  }
  ResignNode(id);
  for (FactId fact : free_facts) free_node_of_fact[fact] = id;
  return id;
}

// Compile step for one tree node: metadata is copied into the arena's
// parallel arrays and the numeric vectors are MOVED into the flat cell
// buffer (routing metadata — slice maps, subqueries, signatures — stays
// authoritative in the tree).
// Called for every node at Build and for the fresh subtree of an insert.
void ShapleyEngine::Impl::AbsorbNodeIntoArena(int node_id) {
  Node& node = nodes[node_id];
  EngineArena::NodeKind kind = EngineArena::NodeKind::kGround;
  switch (node.kind) {
    case Node::Kind::kGround:
      kind = EngineArena::NodeKind::kGround;
      break;
    case Node::Kind::kComponent:
      kind = EngineArena::NodeKind::kComponent;
      break;
    case Node::Kind::kRootVar:
      kind = EngineArena::NodeKind::kRootVar;
      break;
  }
  // The moves leave hollow CountVectors behind (tree nodes are routing
  // metadata only; numerically they are touched just by destruction,
  // assignment and ApproxMemoryBytes, all safe on a hollow vector). Not
  // resetting them to fresh [1] identities keeps the absorb pass free of
  // per-node allocator traffic.
  arena.AppendNode(kind, node.parent, node.child_index, node.children,
                   static_cast<uint32_t>(node.free_endo), node.negated,
                   std::move(node.sat), std::move(node.core_sat));
}

// ---------------------------------------------------------------------------
// Orbit values and keys
// ---------------------------------------------------------------------------

// Memoized per-orbit value for the fact at the given endo index (which must
// not be a null player).
const Rational& ShapleyEngine::Impl::OrbitValue(size_t endo_index) {
  const std::vector<int>& key = orbit_key_of_endo[endo_index];
  auto it = orbit_values.find(key);
  if (it == orbit_values.end()) {
    it = orbit_values
             .emplace(key, arena.ValueAtLeaf(leaf_of_endo[endo_index],
                                             endo_count, global_free_endo))
             .first;
  }
  return it->second;
}

// Mutations re-hash the signatures of the dirtied path but defer key
// regeneration to the next query: one pass over the endogenous facts,
// re-collecting the (partly re-interned) signatures along each leaf-to-root
// path. Pure integer work — no count vector is touched.
void ShapleyEngine::Impl::RefreshOrbitKeysIfDirty() {
  if (!orbit_keys_dirty) return;
  for (size_t e = 0; e < endo_count; ++e) {
    std::vector<int>& key = orbit_key_of_endo[e];
    key.clear();
    for (int node = leaf_of_endo[e]; node >= 0; node = nodes[node].parent) {
      key.push_back(nodes[node].sig);
    }
  }
  orbit_keys_dirty = false;
}

// ---------------------------------------------------------------------------
// Incremental maintenance
// ---------------------------------------------------------------------------

// Re-derives the |Sat| vectors of every ancestor of `dirty` (whose own sat
// and sig the caller has already updated), bottom-up along the single
// root-to-leaf path. Each arena step convolves the child's new combine
// vector against the prefix/suffix sibling product, so the patch never
// touches a node off the path.
void ShapleyEngine::Impl::PatchAncestors(int dirty) {
  for (int node = dirty; nodes[node].parent >= 0;) {
    const int parent = nodes[node].parent;
    arena.PatchChildChanged(parent,
                            static_cast<size_t>(nodes[node].child_index));
    ResignNode(parent);
    node = parent;
  }
  FinishMutation();
}

// Invalidation epilogue of every value-affecting mutation. The player count
// changed (or the root's |Sat| did), so every memoized per-orbit Rational is
// stale even though only one path's count vectors moved; orbit keys
// regenerate lazily. Every arena r-vector embeds path products and the
// All(global_free_endo) root seed, and the arena's orbit-id cache keys off
// the (possibly changed) player set: both are dropped too.
void ShapleyEngine::Impl::FinishMutation() {
  arena.InvalidateValues();
  baseline = arena.SatOf(root).Convolve(CountVector::All(global_free_endo));
  orbit_values.clear();
  orbit_keys_dirty = true;
  endo_count = db->endogenous_count();
  stats.node_count = nodes.size();
  stats.arena_size = arena_fact.size();
  stats.null_player_count = 0;
  for (int leaf : leaf_of_endo) {
    if (leaf < 0) ++stats.null_player_count;
  }
}

// Steers an inserted fact (already in the database and the arena) down the
// tree: through its atom's component, then slice by slice along its root
// values, ending in an existing empty leaf or a freshly built subtree for an
// unseen root value. Exactly one root-to-leaf path is dirtied.
void ShapleyEngine::Impl::RouteInsert(int node_id, uint32_t arena_index,
                                      size_t atom_id) {
  const FactId fact = arena_fact[arena_index];
  switch (nodes[node_id].kind) {
    case Node::Kind::kGround: {
      Node& leaf = nodes[node_id];
      SHAPCQ_CHECK_MSG(leaf.atom_id == atom_id &&
                           leaf.leaf_state == GroundFactState::kAbsent,
                       "insert routed to an occupied ground leaf");
      leaf.leaf_state = arena_endo[arena_index]
                            ? GroundFactState::kEndogenous
                            : GroundFactState::kExogenous;
      arena.SetLeafSat(node_id, GroundLeafSat(leaf.negated, leaf.leaf_state));
      leaf_of_fact[fact] = node_id;
      if (arena_endo[arena_index]) {
        leaf_of_endo[db->endo_index(fact)] = node_id;
      }
      ResignNode(node_id);
      PatchAncestors(node_id);
      return;
    }
    case Node::Kind::kComponent: {
      RouteInsert(nodes[node_id].child_by_atom.at(atom_id), arena_index,
                  atom_id);
      return;
    }
    case Node::Kind::kRootVar:
      break;
  }

  Node& node = nodes[node_id];
  const auto local_it = std::find(node.atom_ids.begin(), node.atom_ids.end(),
                                  atom_id);
  SHAPCQ_CHECK(local_it != node.atom_ids.end());
  const size_t local =
      static_cast<size_t>(local_it - node.atom_ids.begin());
  const std::vector<size_t>& positions = node.root_positions[local];
  const Tuple& tuple = db->tuple_of(fact);
  const shapcq::Value root_value = tuple[positions[0]];
  bool consistent = true;
  for (size_t pos : positions) {
    if (!(tuple[pos] == root_value)) consistent = false;
  }
  if (!consistent) {
    // Unreachable for pattern-matched facts (the atom pattern already
    // enforces equal values at repeated positions), kept to mirror the
    // build-time slicing exactly.
    if (arena_endo[arena_index]) {
      ++node.free_endo;
      arena.SetFreeEndo(node_id, static_cast<uint32_t>(node.free_endo));
      free_node_of_fact[fact] = node_id;
      ResignNode(node_id);
      PatchAncestors(node_id);
    } else {
      stats.arena_size = arena_fact.size();
    }
    return;
  }
  const auto child_it = node.child_by_value.find(root_value.id);
  if (child_it != node.child_by_value.end()) {
    RouteInsert(child_it->second, arena_index, atom_id);
    return;
  }

  // Unseen root value: the fact opens a new slice. Build its subtree (just
  // this fact in its atom's list; every other atom of the slice is empty)
  // and splice it in as a fresh child.
  CQ sliced = node.subquery.Substitute(node.root_var, root_value);
  IndexLists slice_lists(node.atom_ids.size());
  slice_lists[local].push_back(arena_index);
  const std::vector<size_t> atom_ids_copy = node.atom_ids;
  // BuildNode fills the new subtree's sat vectors (its bottom-up math only
  // reads nodes it just built); the compile step below then moves them into
  // the flat arena, node-id order preserved.
  const size_t first_new = nodes.size();
  const int child = BuildNode(sliced, std::move(slice_lists), atom_ids_copy);
  // BuildNode grew the node vector: re-acquire the reference.
  Node& grown = nodes[node_id];
  nodes[child].parent = node_id;
  nodes[child].child_index = static_cast<int>(grown.children.size());
  grown.children.push_back(child);
  grown.child_by_value[root_value.id] = child;
  for (size_t id = first_new; id < nodes.size(); ++id) {
    AbsorbNodeIntoArena(static_cast<int>(id));
  }
  arena.SpliceNewChild(node_id, child);
  ResignNode(node_id);
  PatchAncestors(node_id);
}

// Tree-side half of InsertFact; the fact is already in the database.
void ShapleyEngine::Impl::ApplyInsert(FactId fact) {
  const bool endo = db->is_endogenous(fact);
  if (endo) {
    // Placeholder entries (null player until routing lands in a leaf); the
    // new fact's endo index is by construction the last one.
    leaf_of_endo.push_back(-1);
    orbit_key_of_endo.emplace_back();
  }
  const std::string& relation = db->schema().name(db->relation_of(fact));
  int atom_id = -1;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (atoms[i].relation == relation &&
        MatchesPattern(atoms[i].pattern, db->tuple_of(fact))) {
      atom_id = static_cast<int>(i);
      break;  // self-join-free: at most one atom per relation
    }
  }
  if (atom_id < 0) {
    // The query cannot see this fact. An endogenous one still dilutes every
    // Shapley value (the player count grew): count it free and invalidate.
    // An exogenous one changes nothing — even the memo stays valid.
    if (endo) {
      ++global_free_endo;
      FinishMutation();
    }
    return;
  }
  const uint32_t arena_index = static_cast<uint32_t>(arena_fact.size());
  arena_fact.push_back(fact);
  arena_endo.push_back(endo);
  RouteInsert(root, arena_index, static_cast<size_t>(atom_id));
}

// Tree-side half of DeleteFact; the fact is already tombstoned in the
// database. `endo`/`endo_idx` describe the fact BEFORE removal.
void ShapleyEngine::Impl::ApplyDelete(FactId fact, bool endo,
                                      size_t endo_idx) {
  if (endo) {
    leaf_of_endo.erase(leaf_of_endo.begin() +
                       static_cast<ptrdiff_t>(endo_idx));
    orbit_key_of_endo.erase(orbit_key_of_endo.begin() +
                            static_cast<ptrdiff_t>(endo_idx));
  }
  const auto leaf_it = leaf_of_fact.find(fact);
  if (leaf_it != leaf_of_fact.end()) {
    const int leaf_id = leaf_it->second;
    leaf_of_fact.erase(leaf_it);
    Node& leaf = nodes[leaf_id];
    leaf.leaf_state = GroundFactState::kAbsent;
    arena.SetLeafSat(leaf_id, GroundLeafSat(leaf.negated, leaf.leaf_state));
    ResignNode(leaf_id);
    PatchAncestors(leaf_id);
    return;
  }
  const auto free_it = free_node_of_fact.find(fact);
  if (free_it != free_node_of_fact.end()) {
    const int node_id = free_it->second;
    free_node_of_fact.erase(free_it);
    Node& node = nodes[node_id];
    SHAPCQ_CHECK(node.free_endo > 0);
    --node.free_endo;
    arena.SetFreeEndo(node_id, static_cast<uint32_t>(node.free_endo));
    ResignNode(node_id);
    PatchAncestors(node_id);
    return;
  }
  if (endo) {
    // Globally free: shrinking the player count re-weights every value.
    SHAPCQ_CHECK(global_free_endo > 0);
    --global_free_endo;
    FinishMutation();
  }
  // Exogenous and outside the index: no count is affected.
}

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

ShapleyEngine::ShapleyEngine() = default;
ShapleyEngine::~ShapleyEngine() = default;
ShapleyEngine::ShapleyEngine(ShapleyEngine&&) noexcept = default;
ShapleyEngine& ShapleyEngine::operator=(ShapleyEngine&&) noexcept = default;

Result<ShapleyEngine> ShapleyEngine::Build(const CQ& q, const Database& db,
                                           const CancelToken* cancel) {
  if (!IsSafe(q)) {
    return Result<ShapleyEngine>::Error(
        "ShapleyEngine requires safe negation: " + q.ToString());
  }
  if (!IsSelfJoinFree(q)) {
    return Result<ShapleyEngine>::Error(
        "ShapleyEngine requires a self-join-free query: " + q.ToString());
  }
  if (!IsHierarchical(q)) {
    return Result<ShapleyEngine>::Error(
        "ShapleyEngine requires a hierarchical query: " + q.ToString());
  }

  ShapleyEngine engine;
  engine.impl_ = std::make_unique<Impl>();
  Impl& impl = *engine.impl_;
  impl.db = &db;
  impl.endo_count = db.endogenous_count();
  impl.leaf_of_endo.assign(impl.endo_count, -1);
  impl.orbit_key_of_endo.assign(impl.endo_count, {});

  // Shared matched-fact index: every fact of every atom's relation, matched
  // once against the precompiled pattern and interned into the flat arena.
  IndexLists lists(q.atom_count());
  std::vector<size_t> atom_ids(q.atom_count());
  size_t relevant_endo = 0;
  for (size_t i = 0; i < q.atom_count(); ++i) {
    const Atom& atom = q.atom(i);
    atom_ids[i] = i;
    impl.atoms.push_back(Impl::QueryAtom{atom.relation, atom.arity(),
                                         BuildAtomPattern(atom)});
    const RelationId rel = db.schema().Find(atom.relation);
    for (FactId fact : db.facts_of(rel)) {
      if (!MatchesPattern(impl.atoms.back().pattern, db.tuple_of(fact))) {
        continue;
      }
      const uint32_t index = static_cast<uint32_t>(impl.arena_fact.size());
      impl.arena_fact.push_back(fact);
      impl.arena_endo.push_back(db.is_endogenous(fact));
      lists[i].push_back(index);
      if (db.is_endogenous(fact)) ++relevant_endo;
    }
  }
  impl.global_free_endo = impl.endo_count - relevant_endo;

  // Heuristic pre-size: the recursion creates at most a few nodes per
  // matched fact (leaf groups plus their component/root-var spine), and Node
  // is container-heavy, so growth reallocations are the expensive kind.
  impl.nodes.reserve(2 * impl.arena_fact.size() + 16);
  impl.build_cancel =
      (cancel != nullptr && cancel->Enabled()) ? cancel : nullptr;
  impl.root = impl.BuildNode(q, std::move(lists), atom_ids);
  impl.build_cancel = nullptr;  // mutations' subtree builds never cancel
  if (impl.build_cancelled) {
    return Result<ShapleyEngine>::Error(CancelToken::kCancelledMessage);
  }
  impl.baseline = impl.nodes[impl.root].sat.Convolve(
      CountVector::All(impl.global_free_endo));

  // Compile the freshly built tree into the flat arena: every count vector
  // moves into the contiguous cell buffer (the tree nodes keep routing
  // metadata), and the topological node order is fixed.
  impl.arena.Reserve(impl.nodes.size());
  size_t cell_count = 0;
  for (const Impl::Node& node : impl.nodes) {
    cell_count += node.sat.universe_size() + 1;
    if (node.kind == Impl::Node::Kind::kRootVar) {
      cell_count += node.core_sat.universe_size() + 1;
    }
  }
  impl.arena.ReserveCells(cell_count);
  for (size_t id = 0; id < impl.nodes.size(); ++id) {
    impl.AbsorbNodeIntoArena(static_cast<int>(id));
  }
  impl.arena.SealStructure(impl.root);

  // Orbit keys: the hash-consed signature of every node on the leaf-to-root
  // path. Equal keys -> the leaves are related by a tree automorphism ->
  // the facts are symmetric players with equal Shapley values.
  for (size_t e = 0; e < impl.endo_count; ++e) {
    int node = impl.leaf_of_endo[e];
    if (node < 0) continue;  // null player: empty key
    std::vector<int>& key = impl.orbit_key_of_endo[e];
    for (; node >= 0; node = impl.nodes[node].parent) {
      key.push_back(impl.nodes[node].sig);
    }
  }

  impl.stats.node_count = impl.nodes.size();
  impl.stats.arena_size = impl.arena_fact.size();
  for (int leaf : impl.leaf_of_endo) {
    if (leaf < 0) ++impl.stats.null_player_count;
  }
  return Result<ShapleyEngine>::Ok(std::move(engine));
}

const CountVector& ShapleyEngine::BaselineSat() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->baseline;
}

Rational ShapleyEngine::Value(FactId f) {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  SHAPCQ_CHECK_MSG(impl.db->is_endogenous(f), "Shapley of an exogenous fact");
  impl.RefreshOrbitKeysIfDirty();
  const size_t e = impl.db->endo_index(f);
  if (impl.leaf_of_endo[e] < 0) return Rational(0);  // null player
  return impl.OrbitValue(e);
}

std::vector<Rational> ShapleyEngine::AllValues() {
  return AllValues(ParallelOptions{});
}

std::vector<Rational> ShapleyEngine::AllValues(const ParallelOptions& options) {
  return std::move(AllValues(options, nullptr)).value();
}

Result<std::vector<Rational>> ShapleyEngine::AllValues(
    const ParallelOptions& options, const CancelToken* cancel) {
  using R = Result<std::vector<Rational>>;
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  if (cancel != nullptr && !cancel->Enabled()) cancel = nullptr;
  impl.RefreshOrbitKeysIfDirty();
  const size_t num_threads =
      ThreadPool::ResolveThreadCount(options.num_threads);

  if (num_threads > 1) {
    // Orbit representatives still missing from the memo, in first-seen
    // endo-index order — exactly the leaves the assembly below evaluates.
    // Values already memoized (by an earlier, possibly cancelled, query)
    // are pure functions of the built index, so reusing them preserves
    // bit-identity.
    std::vector<int> rep_leaves;
    std::set<std::vector<int>> seen;
    for (size_t e = 0; e < impl.endo_count; ++e) {
      if (impl.leaf_of_endo[e] < 0) continue;  // null player
      const std::vector<int>& key = impl.orbit_key_of_endo[e];
      if (impl.orbit_values.count(key) != 0) continue;  // already memoized
      if (seen.insert(key).second) rep_leaves.push_back(impl.leaf_of_endo[e]);
    }
    // WarmValuePaths fills every representative's r-vector with a
    // level-parallel sweep (slot lengths pinned by a serial prepass, so
    // workers never move the cell buffer), cancellable between levels; the
    // serial assembly then reads warm state only. Bit-identical to the
    // serial path at every thread count by the slot-per-result argument in
    // engine_arena.h, and a partial warm leaves only cold watermarks behind.
    if (rep_leaves.size() > 1) {
      Combinatorics::Prewarm(impl.endo_count);
      if (!impl.arena.WarmValuePaths(rep_leaves, impl.global_free_endo,
                                     num_threads, cancel)) {
        return R::Error(CancelToken::kCancelledMessage);
      }
    }
  }

  // Serial assembly, polling `cancel` before each orbit not yet memoized.
  std::vector<Rational> values;
  values.reserve(impl.endo_count);
  bool any_null = false;
  for (size_t e = 0; e < impl.endo_count; ++e) {
    if (impl.leaf_of_endo[e] < 0) {
      any_null = true;
      values.push_back(Rational(0));
      continue;
    }
    if (cancel != nullptr &&
        impl.orbit_values.count(impl.orbit_key_of_endo[e]) == 0 &&
        cancel->Expired()) {
      return R::Error(CancelToken::kCancelledMessage);
    }
    values.push_back(impl.OrbitValue(e));
  }
  impl.stats.orbit_count = impl.orbit_values.size() + (any_null ? 1 : 0);
  return R::Ok(std::move(values));
}

std::vector<size_t> ShapleyEngine::OrbitIds() {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  impl.RefreshOrbitKeysIfDirty();
  // The arena memoizes the dense id vector across queries (mutations drop it
  // via InvalidateValues): the sampling tier calls OrbitIds per report, and
  // the key re-collection below is pure overhead when nothing changed.
  if (impl.arena.HasOrbitIds()) {
    const std::vector<size_t>& cached = impl.arena.CachedOrbitIds();
    size_t orbit_count = 0;  // ids are dense first-seen: count = max + 1
    for (size_t id : cached) orbit_count = std::max(orbit_count, id + 1);
    impl.stats.orbit_count = orbit_count;
    return cached;
  }
  std::map<std::vector<int>, size_t> ids;  // empty key = the null orbit
  std::vector<size_t> out;
  out.reserve(impl.endo_count);
  for (size_t e = 0; e < impl.endo_count; ++e) {
    out.push_back(
        ids.emplace(impl.orbit_key_of_endo[e], ids.size()).first->second);
  }
  impl.stats.orbit_count = ids.size();
  impl.arena.CacheOrbitIds(out);
  return out;
}

Result<FactId> ShapleyEngine::InsertFact(Database& db,
                                         const std::string& relation,
                                         Tuple tuple, bool endogenous) {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  SHAPCQ_CHECK_MSG(&db == impl.db,
                   "InsertFact on a database the engine was not built on");
  const RelationId rel = db.schema().Find(relation);
  if (rel != kNoRelation && db.schema().arity(rel) != tuple.size()) {
    return Result<FactId>::Error(
        "InsertFact: arity mismatch for relation " + relation);
  }
  // A relation the schema has not seen yet (no facts at Build, none since)
  // can still be mentioned by the query: validate against the atom's arity,
  // or pattern matching would index positions past the tuple's end.
  for (const Impl::QueryAtom& atom : impl.atoms) {
    if (atom.relation == relation && atom.arity != tuple.size()) {
      return Result<FactId>::Error(
          "InsertFact: arity mismatch with query atom " + relation);
    }
  }
  if (rel != kNoRelation && db.FindFact(rel, tuple) != kNoFact) {
    return Result<FactId>::Error("InsertFact: duplicate fact in " + relation);
  }
  const FactId fact = db.AddFact(relation, std::move(tuple), endogenous);
  impl.ApplyInsert(fact);
  return Result<FactId>::Ok(fact);
}

Result<FactId> ShapleyEngine::DeleteFact(Database& db, FactId fact) {
  SHAPCQ_CHECK(impl_ != nullptr);
  Impl& impl = *impl_;
  SHAPCQ_CHECK_MSG(&db == impl.db,
                   "DeleteFact on a database the engine was not built on");
  if (fact < 0 || static_cast<size_t>(fact) >= db.fact_slot_count()) {
    return Result<FactId>::Error("DeleteFact: no such fact id " +
                                 std::to_string(fact));
  }
  if (db.is_removed(fact)) {
    return Result<FactId>::Error("DeleteFact: fact " + std::to_string(fact) +
                                 " is already removed");
  }
  const bool endo = db.is_endogenous(fact);
  const size_t endo_idx = endo ? db.endo_index(fact) : 0;
  db.RemoveFact(fact);
  impl.ApplyDelete(fact, endo, endo_idx);
  return Result<FactId>::Ok(fact);
}

Result<std::vector<FactId>> ShapleyEngine::ApplyDelta(
    Database& db, const std::vector<FactDelta>& delta) {
  std::vector<FactId> applied;
  applied.reserve(delta.size());
  for (const FactDelta& d : delta) {
    Result<FactId> result =
        d.op == FactDelta::Op::kInsert
            ? InsertFact(db, d.relation, d.tuple, d.endogenous)
            : DeleteFact(db, d.fact);
    if (!result.ok()) {
      return Result<std::vector<FactId>>::Error(
          "ApplyDelta: delta " + std::to_string(applied.size()) +
          " failed: " + result.error());
    }
    applied.push_back(result.value());
  }
  return Result<std::vector<FactId>>::Ok(std::move(applied));
}

Result<std::vector<FactId>> ShapleyEngine::ApplyDelta(
    Database& db, const std::vector<FactDelta>& delta,
    const CancelToken* cancel) {
  if (cancel == nullptr || !cancel->Enabled()) return ApplyDelta(db, delta);
  std::vector<FactId> applied;
  applied.reserve(delta.size());
  for (const FactDelta& d : delta) {
    // Poll between records only: each record's root-to-leaf patch is
    // atomic w.r.t. cancellation, so the engine always equals a fresh
    // build on the applied prefix.
    if (cancel->Expired()) {
      return Result<std::vector<FactId>>::Error(
          "ApplyDelta: " + std::string(CancelToken::kCancelledMessage) +
          " after " + std::to_string(applied.size()) + " deltas");
    }
    Result<FactId> result =
        d.op == FactDelta::Op::kInsert
            ? InsertFact(db, d.relation, d.tuple, d.endogenous)
            : DeleteFact(db, d.fact);
    if (!result.ok()) {
      return Result<std::vector<FactId>>::Error(
          "ApplyDelta: delta " + std::to_string(applied.size()) +
          " failed: " + result.error());
    }
    applied.push_back(result.value());
  }
  return Result<std::vector<FactId>>::Ok(std::move(applied));
}

ShapleyEngine::Stats ShapleyEngine::stats() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  return impl_->stats;
}

size_t ShapleyEngine::ApproxMemoryBytes() const {
  SHAPCQ_CHECK(impl_ != nullptr);
  const Impl& impl = *impl_;
  size_t bytes = sizeof(Impl);
  // The cell buffer, slot table and SoA arrays; the tree loop below counts
  // the routing metadata (its count vectors were moved into the arena).
  bytes += impl.arena.ApproxMemoryBytes();
  for (const Impl::Node& node : impl.nodes) {
    bytes += sizeof(Impl::Node);
    bytes += node.sat.ApproxMemoryBytes();
    bytes += node.core_sat.ApproxMemoryBytes();
    bytes += node.children.capacity() * sizeof(int);
    bytes += node.atom_ids.capacity() * sizeof(size_t);
    for (const std::vector<size_t>& positions : node.root_positions) {
      bytes += sizeof(positions) + positions.capacity() * sizeof(size_t);
    }
    // Tree maps and the stored subquery, at a flat per-entry estimate: the
    // budget needs growth tracking, not allocator-exact container overheads.
    bytes += node.child_by_value.size() * 4 * sizeof(void*);
    bytes += node.child_by_atom.size() * 4 * sizeof(void*);
    bytes += node.subquery.atom_count() * 64;
  }
  for (const Impl::QueryAtom& atom : impl.atoms) {
    bytes += sizeof(Impl::QueryAtom) + atom.relation.capacity();
  }
  bytes += impl.arena_fact.capacity() * sizeof(FactId);
  bytes += impl.arena_endo.capacity() / 8;
  bytes += impl.leaf_of_endo.capacity() * sizeof(int);
  for (const std::vector<int>& key : impl.orbit_key_of_endo) {
    bytes += sizeof(key) + key.capacity() * sizeof(int);
  }
  bytes += impl.leaf_of_fact.size() * 4 * sizeof(void*);
  bytes += impl.free_node_of_fact.size() * 4 * sizeof(void*);
  for (const auto& [canonical, sig] : impl.sig_interner) {
    (void)sig;
    bytes += canonical.capacity() + 4 * sizeof(void*);
  }
  for (const auto& [key, value] : impl.orbit_values) {
    bytes += key.capacity() * sizeof(int) + value.ApproxMemoryBytes() +
             4 * sizeof(void*);
  }
  return bytes;
}

}  // namespace shapcq
