package olsr

import (
	"slices"
	"time"

	"qolsr/internal/graph"
)

// Origin-major topology store.
//
// A TC floods to every node of the field, and every receiver keeps one row
// about its origin. Stored receiver-major — each node its own table of
// origins — a flood touches N scattered tables and the field holds N² small
// heap objects. The store turns that around: the nodes of one field (NewNodes;
// NewNode is a field of one) share a store holding one block per *origin*,
// with one by-value row per member. A flood to N receivers walks one
// contiguous block, a row costs 16 bytes, no heap object of its own and no
// GC marking (the advertised sets live in a small per-block table), and a
// block is allocated only once its origin is first heard — a node's share
// is proportional to the origins it has actually heard from.
//
// Origin→slot is the identity for identifiers inside the store's dense
// window (Config.DenseIDs, at least the field size) and one overflow map per
// store for everything else, so arbitrary identifiers (the daemon's) and
// simulator indices take the same path through slot.
//
// The store also carries the field's one selection scratch (view): whichever
// member's neighborhood changed builds its two-hop view there and runs
// MPR/ANS selection on it (Node.recompute), and nothing of the view outlives
// that call. Its one routing scratch (routes) serves Routes the same way.
// The host serialises every call on a field's members.

// topoRow is what one member holds about one origin: the TC bookkeeping and
// the name of the origin's advertised set in its block's table — 16 bytes
// and no pointer, so the store's N² part is memory the GC never scans. A row
// is present iff expires != 0; deadlines are always positive.
type topoRow struct {
	expires time.Duration
	// ver is the set's name (0: the empty set) under the sync flag.
	ver  uint16
	ansn uint16
	// Delta-chain position (DeltaTC receivers): the row holds the origin's
	// state as of full TC fullSeq plus the first chain deltas. The sync flag
	// is clear when a chain gap was detected — the links stay the best known
	// state, but no further delta may apply until the next full TC rebases
	// the chain.
	fullSeq uint16
	chain   uint16
}

// The chain index needs all 16 bits, so the sync flag takes ver's top bit.
// A set name is then 15 bits, and a table holds one name per member at most.
const syncedBit, maxMembers = 1 << 15, 1<<15 - 1

func (r *topoRow) synced() bool { return r.ver&syncedBit != 0 }

// topoBlock is one origin's rows, one per member, and the table of the sets
// they name, deduplicated by slice identity (data pointer and length), never
// by content: a row reads back the very slice it was given. Only handler
// context writes the table. A member expiring its row clears the deadline
// and leaves the name to the row's next write or the block's release.
type topoBlock struct {
	rows []topoRow
	// advs[v] is the set named v (advs[0] the empty set) and the number of
	// rows naming it; an entry no row names is nil and reused.
	advs []advEntry
	// The last delta applied (held, so its address cannot name another
	// delta), the set it was applied to and the result.
	memo              *TCDelta
	memoBase, memoRes []LinkInfo
}

type advEntry struct {
	adv  []LinkInfo
	refs int32
}

// links returns row r's advertised set.
func (b *topoBlock) links(r *topoRow) []LinkInfo { return b.advs[r.ver&^syncedBit].adv }

// set makes r name adv — the entry holding the same slice, else the first
// free one — and gives back the set it named.
func (b *topoBlock) set(r *topoRow, adv []LinkInfo) {
	if v := r.ver &^ syncedBit; v != 0 {
		if b.advs[v].refs--; b.advs[v].refs == 0 {
			b.advs[v].adv = nil
		}
	}
	r.ver &= syncedBit
	if len(adv) == 0 {
		return
	}
	v := len(b.advs)
	for i := v - 1; i > 0; i-- {
		if sharedAdv(b.advs[i].adv, adv) {
			v = i
			break
		} else if b.advs[i].refs == 0 {
			v = i
		}
	}
	if v == len(b.advs) {
		b.advs = append(b.advs, advEntry{})
	}
	b.advs[v].adv = adv
	b.advs[v].refs++
	r.ver |= uint16(v)
}

// applyDelta returns d applied to old. Receivers starting from equal content
// share the memo's result slice, so a delta costs one table entry, not one
// per member.
func (b *topoBlock) applyDelta(old []LinkInfo, d *TCDelta) []LinkInfo {
	if b.memo != d || !sameAdv(b.memoBase, old) {
		b.memo, b.memoBase = d, old
		b.memoRes = applyDeltaToAdv(old, normalizeAdv(d.Add), normalizeDel(d.Del))
	}
	return b.memoRes
}

type topoStore struct {
	members int
	window  int
	// blocks holds one block per slot, its rows nil while the slot is
	// unused; blocks[:window] are identity-mapped, overflow slots follow. A
	// block's rows are never moved or resized while any row is present.
	blocks []topoBlock
	// overflow maps the origins outside the window to their slots, origins
	// the overflow slots (from index window on) back to their origins, and
	// free lists the reclaimed overflow slots.
	overflow map[int64]int32
	origins  []int64
	free     []int32
	// The reclaim sweep runs once per hold (the topology hold time).
	hold      time.Duration
	nextSweep time.Duration
	// view is the selection scratch the members share (see above), viewIDs
	// the numbering of its nodes.
	view    graph.ViewScratch
	viewIDs graph.IDIndex
	// routes is the members' routing scratch.
	routes routeScratch
}

func newTopoStore(members, window int, hold time.Duration) *topoStore {
	return &topoStore{
		members:   members,
		window:    window,
		blocks:    make([]topoBlock, window),
		overflow:  make(map[int64]int32),
		hold:      hold,
		nextSweep: hold,
	}
}

// slot maps an origin to its slot index, -1 when it has none.
func (s *topoStore) slot(origin int64) int32 {
	if uint64(origin) < uint64(s.window) {
		return int32(origin)
	}
	if i, ok := s.overflow[origin]; ok {
		return i
	}
	return -1
}

// origin is slot's inverse.
func (s *topoStore) origin(slot int) int64 {
	if slot < s.window {
		return int64(slot)
	}
	return s.origins[slot-s.window]
}

// row returns the member's row about origin and its block, nils when it
// holds none.
func (s *topoStore) row(member int32, origin int64) (*topoBlock, *topoRow) {
	if i := s.slot(origin); i >= 0 && s.blocks[i].rows != nil && s.blocks[i].rows[member].expires != 0 {
		return &s.blocks[i], &s.blocks[i].rows[member]
	}
	return nil, nil
}

// claim returns the member's row about origin, present or not, allocating
// the origin's slot and block on first hearing.
func (s *topoStore) claim(member int32, origin int64) (*topoBlock, *topoRow) {
	i := s.slot(origin)
	if i < 0 {
		if n := len(s.free); n > 0 {
			i = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			i = int32(len(s.blocks))
			s.blocks = append(s.blocks, topoBlock{})
			s.origins = append(s.origins, 0)
		}
		s.origins[int(i)-s.window] = origin
		s.overflow[origin] = i
	}
	b := &s.blocks[i]
	if b.rows == nil {
		// A table never outgrows members+1 entries; 8 holds what floods leave.
		b.rows, b.advs = make([]topoRow, s.members), make([]advEntry, 1, min(s.members+1, 8))
	}
	return b, &b.rows[member]
}

// each visits the member's present rows and their sets in slot order —
// callers must be order-independent. The callback may clear the visited
// row's deadline.
func (s *topoStore) each(member int32, f func(origin int64, r *topoRow, adv []LinkInfo)) {
	for i := range s.blocks {
		if b := &s.blocks[i]; b.rows != nil && b.rows[member].expires != 0 {
			f(s.origin(i), &b.rows[member], b.links(&b.rows[member]))
		}
	}
}

// tick runs the reclaim sweep when it is due.
func (s *topoStore) tick(now time.Duration) {
	if now >= s.nextSweep {
		s.sweep(now)
	}
}

// sweep reclaims the slots no member holds a row in any more: the block and
// its table are released and an overflow slot, with its map key, returns to the free list.
// A row past its deadline that its member has not expired yet (expiry is
// each member's own business) still holds the slot. A block is scanned only
// up to its first held row, so the sweep costs one probe per slot in a field
// where every origin reaches every member.
func (s *topoStore) sweep(now time.Duration) {
	s.nextSweep = now + s.hold
	for i, b := range s.blocks {
		if b.rows == nil || slices.ContainsFunc(b.rows, func(r topoRow) bool { return r.expires != 0 }) {
			continue
		}
		s.blocks[i] = topoBlock{}
		if i >= s.window {
			delete(s.overflow, s.origins[i-s.window])
			s.free = append(s.free, int32(i))
		}
	}
}
