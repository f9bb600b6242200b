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
// allocated once the origin is first heard, with one by-value row per member,
// so a flood to N receivers walks one contiguous block.
//
// A row is one 8-byte word with no pointer, so the store's N² part is memory
// the GC never scans: an index into its block's state table, whose entries
// hold once what the rows that took one message would each repeat (see
// topoState), and the row's deadline as an exact offset from the entry's
// base. A row releases its entry when it moves to another or expires.
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

// topoRow is what one member holds about one origin: its entry's index in the
// top 16 bits (0: no row) and its deadline's offset from the entry's base in
// the low 48.
type topoRow uint64

// A block's table holds one entry per member at most, plus the reserved 0.
const offsetBits, maxMembers = 48, 1<<15 - 1

// topoState is one entry of a block's state table: what the rows naming it
// say about the origin besides their deadlines, the instant their offsets
// count from and how many rows name it. An entry no row names is zero and
// reused.
type topoState struct {
	adv  []LinkInfo // held by identity: a row reads back the very slice it was given
	ansn uint16
	// Delta-chain position (DeltaTC receivers): the origin's state as of
	// full TC fullSeq plus the first chain deltas. synced is false after a
	// chain gap: the links stay the best known state, but no delta applies
	// until the next full TC rebases the chain.
	fullSeq, chain uint16
	synced         bool
	base           time.Duration
	refs           int32
}

// same reports whether s and o say the same, the sets by identity.
func (s *topoState) same(o *topoState) bool {
	return s.ansn == o.ansn && s.fullSeq == o.fullSeq && s.chain == o.chain && s.synced == o.synced &&
		len(s.adv) == len(o.adv) && (len(s.adv) == 0 || &s.adv[0] == &o.adv[0])
}

// topoBlock is one origin's rows, one per member, and the table of the states
// they name. Only handler context writes either.
type topoBlock struct {
	rows   []topoRow
	states []topoState // states[0] is reserved: index 0 names no row
	// The last delta applied (held, so its address cannot name another
	// delta), the set it was applied to and the result.
	memo              *TCDelta
	memoBase, memoRes []LinkInfo
}

// state returns the entry present row r names.
func (b *topoBlock) state(r topoRow) *topoState { return &b.states[r>>offsetBits] }

// deadline returns present row r's deadline.
func (b *topoBlock) deadline(r topoRow) time.Duration {
	return b.state(r).base + time.Duration(r&(1<<offsetBits-1))
}

// release clears row r, freeing its entry when no other row names it.
func (b *topoBlock) release(r *topoRow) {
	if e := b.state(*r); *r != 0 {
		if e.refs--; e.refs == 0 {
			*e = topoState{}
		}
	}
	*r = 0
}

// put makes row r say what s says until deadline: r joins an entry that says
// the same when base <= deadline < base+2^48, else takes the first free
// entry, based at deadline, so every deadline is exact.
func (b *topoBlock) put(r *topoRow, s *topoState, deadline time.Duration) {
	b.release(r)
	v := len(b.states)
	for i := 1; i < len(b.states); i++ {
		e := &b.states[i]
		if e.refs != 0 && e.same(s) && e.base <= deadline && deadline-e.base < 1<<offsetBits {
			v = i
			break
		} else if e.refs == 0 && v == len(b.states) {
			v = i
		}
	}
	if v == len(b.states) {
		b.states = append(b.states, topoState{})
	}
	e := &b.states[v]
	if e.refs == 0 {
		*e = *s
		e.base, e.refs = deadline, 0
	}
	e.refs++
	*r = topoRow(v)<<offsetBits | topoRow(deadline-e.base)
}

// applyDelta returns d applied to old. Receivers starting from equal content
// share the memo's result slice, so the receivers of one delta can share one
// entry.
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
	// view is the selection scratch the members share (see above), and
	// viewLay the storage their views are laid out in.
	view    graph.ViewScratch
	viewLay layoutScratch
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
	if i := s.slot(origin); i >= 0 && s.blocks[i].rows != nil && s.blocks[i].rows[member] != 0 {
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
		b.rows, b.states = make([]topoRow, s.members), make([]topoState, 1, min(s.members+1, 8))
	}
	return b, &b.rows[member]
}

// each visits the member's present rows and their blocks in slot order —
// callers must be order-independent. The callback may release the visited
// row.
func (s *topoStore) each(member int32, f func(origin int64, b *topoBlock, r *topoRow)) {
	for i := range s.blocks {
		if b := &s.blocks[i]; b.rows != nil && b.rows[member] != 0 {
			f(s.origin(i), b, &b.rows[member])
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
// its table are released and an overflow slot, with its map key, returns to
// the free list. A row past its deadline that its member has not expired yet
// (expiry is each member's own business) still holds the slot. A block holds
// a row iff an entry of its state table is named, so the sweep reads the
// tables, never the rows.
func (s *topoStore) sweep(now time.Duration) {
	s.nextSweep = now + s.hold
	for i, b := range s.blocks {
		if b.rows == nil || slices.ContainsFunc(b.states, func(e topoState) bool { return e.refs != 0 }) {
			continue
		}
		s.blocks[i] = topoBlock{}
		if i >= s.window {
			delete(s.overflow, s.origins[i-s.window])
			s.free = append(s.free, int32(i))
		}
	}
}
