package olsr

import (
	"slices"
	"time"
	"unsafe"

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
// contiguous block, a row costs 32 bytes and no heap object of its own, and
// a block is allocated only once its origin is first heard — a node's share
// is proportional to the origins it has actually heard from.
//
// Origin→slot is the identity for identifiers inside the store's dense
// window (Config.DenseIDs, at least the field size) and one overflow map per
// store for everything else, so arbitrary identifiers (the daemon's) and
// simulator indices take the same path through slot.
//
// Concurrency contract (sim.RebuildRoutes runs Node.expire on many members at
// once): a member reads the slot table, reads or clears *its own* rows and
// borrows a routing scratch from the store's locked pool (routes), nothing
// more, from any context. Everything else that writes shared structure —
// slot and block allocation, the reclaim sweep — happens in handler context
// (HandleTC, HandleTCDelta), which the host serialises across the whole field.
//
// The store also carries the field's one selection scratch (view): whichever
// member's neighborhood changed builds its two-hop view there and runs
// MPR/ANS selection on it (Node.recompute), and nothing of the view outlives
// that call. It is handler context only as well — recompute runs from
// Generate* and the MPRSet/RelaySet/ANS queries, which the host serialises
// with the handlers; Routes and RoutesDirty, the calls that may run on many
// members at once, never select.

// topoRow is what one member holds about one origin: the origin's advertised
// set (the interned block itself, see advert.go — stored as data pointer and
// length, a slice header minus the capacity) and the TC bookkeeping. A row is
// present iff expires != 0; deadlines are always positive.
type topoRow struct {
	expires time.Duration
	adv     *LinkInfo
	advLen  uint32
	ansn    uint16
	// Delta-chain position (DeltaTC receivers): the row holds the origin's
	// state as of full TC fullSeq plus the first chain deltas. synced is
	// false when a chain gap was detected — the links stay the best known
	// state, but no further delta may apply until the next full TC rebases
	// the chain.
	fullSeq uint16
	chain   uint16
	synced  bool
}

// links returns the row's normalised advertised set.
func (r *topoRow) links() []LinkInfo {
	return unsafe.Slice(r.adv, r.advLen)
}

// setLinks stores a normalised advertised set, sharing its storage.
func (r *topoRow) setLinks(adv []LinkInfo) {
	r.adv, r.advLen = unsafe.SliceData(adv), uint32(len(adv))
}

type topoStore struct {
	members int
	window  int
	// blocks holds one block per slot — a row per member — nil while the
	// slot is unused; blocks[:window] are identity-mapped, overflow slots
	// follow. A block is never moved or resized while any row is present.
	blocks [][]topoRow
	// overflow maps the origins outside the window to their slots, origins
	// the overflow slots (from index window on) back to their origins, and
	// free lists the reclaimed overflow slots.
	overflow map[int64]int32
	origins  []int64
	free     []int32
	// The reclaim sweep runs once per hold (the topology hold time).
	hold      time.Duration
	nextSweep time.Duration
	// view is the selection scratch the members share (see above).
	view graph.ViewScratch
	// routes pools the members' routing scratch, the one shared structure
	// Routes writes; it is safe for concurrent use.
	routes scratchPool
}

func newTopoStore(members, window int, hold time.Duration) *topoStore {
	return &topoStore{
		members:   members,
		window:    window,
		blocks:    make([][]topoRow, window),
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

// row returns the member's row about origin, nil when it holds none.
func (s *topoStore) row(member int32, origin int64) *topoRow {
	i := s.slot(origin)
	if i < 0 || s.blocks[i] == nil {
		return nil
	}
	if r := &s.blocks[i][member]; r.expires != 0 {
		return r
	}
	return nil
}

// claim returns the member's row about origin, present or not, allocating
// the origin's slot and block on first hearing. Handler context only.
func (s *topoStore) claim(member int32, origin int64) *topoRow {
	i := s.slot(origin)
	if i < 0 {
		if n := len(s.free); n > 0 {
			i = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			i = int32(len(s.blocks))
			s.blocks = append(s.blocks, nil)
			s.origins = append(s.origins, 0)
		}
		s.origins[int(i)-s.window] = origin
		s.overflow[origin] = i
	}
	if s.blocks[i] == nil {
		s.blocks[i] = make([]topoRow, s.members)
	}
	return &s.blocks[i][member]
}

// each visits the member's present rows in slot order — callers must be
// order-independent. The callback may clear the visited row.
func (s *topoStore) each(member int32, f func(origin int64, r *topoRow)) {
	for i, rows := range s.blocks {
		if rows != nil && rows[member].expires != 0 {
			f(s.origin(i), &rows[member])
		}
	}
}

// tick runs the reclaim sweep when it is due. Handler context only.
func (s *topoStore) tick(now time.Duration) {
	if now >= s.nextSweep {
		s.sweep(now)
	}
}

// sweep reclaims the slots no member holds a row in any more: the block is
// released and an overflow slot, with its map key, returns to the free list.
// A row past its deadline that its member has not expired yet (expiry is
// each member's own business) still holds the slot. A block is scanned only
// up to its first held row, so the sweep costs one probe per slot in a field
// where every origin reaches every member. Handler context only.
func (s *topoStore) sweep(now time.Duration) {
	s.nextSweep = now + s.hold
	for i, rows := range s.blocks {
		if rows == nil || slices.ContainsFunc(rows, func(r topoRow) bool { return r.expires != 0 }) {
			continue
		}
		s.blocks[i] = nil
		if i >= s.window {
			delete(s.overflow, s.origins[i-s.window])
			s.free = append(s.free, int32(i))
		}
	}
}
