package geom

import (
	"fmt"
	"math/bits"
)

// Grid is a spatial hash over a field: points are bucketed into square cells
// of side equal to the query radius, so a radius query inspects at most the
// 3×3 cell block around the query point. It makes unit-disk graph extraction
// O(n · expected neighbors) instead of O(n²).
//
// Only occupied cells are stored, so memory is proportional to the points,
// not to the field's area: an open-addressing table maps each occupied cell
// to a dense slot, and slot s holds the points byCell[start[s]:start[s+1]],
// in ascending index order. Building one takes a fixed number of
// allocations whatever the number of points.
type Grid struct {
	cellSize float64
	cols     int
	rows     int
	points   []Point
	table    []cellSlot // length a power of two, at least twice the points
	shift    uint       // 64 - log2(len(table)): keeps a hash's top bits
	start    []int32    // slot -> offset in byCell; one entry past the last slot
	byCell   []int32    // point indices grouped by slot
}

// maxSide bounds a Grid's columns and rows: a cell index stays below 2^61.
const maxSide = 1 << 30

// cellSlot is one entry of a Grid's cell table; key 0 marks a free entry.
type cellSlot struct {
	key  int // cell index + 1
	slot int32
}

// NewGrid indexes points over field with the given cell size (normally the
// communication radius), widened where the field is more than 2^30 cells
// across. The points slice is retained; callers must not mutate it
// afterwards.
func NewGrid(field Field, cellSize float64, points []Point) (*Grid, error) {
	if err := field.Validate(); err != nil {
		return nil, err
	}
	if !(cellSize > 0) {
		return nil, fmt.Errorf("geom: cell size %g must be positive", cellSize)
	}
	// Widen the cells on a field more than maxSide of them across, so every
	// cell index cy*cols + cx fits an int: wider cells still hold every
	// pair a radius up to the requested size can link.
	cellSize = max(cellSize, field.Width/maxSide, field.Height/maxSide)
	n := len(points)
	logSize := bits.Len(uint(max(2*n-1, 1))) // 2n rounded up to a power of two
	g := &Grid{
		cellSize: cellSize,
		cols:     int(field.Width/cellSize) + 1,
		rows:     int(field.Height/cellSize) + 1,
		points:   points,
		table:    make([]cellSlot, 1<<logSize),
		shift:    uint(64 - logSize),
		start:    make([]int32, n+1),
		byCell:   make([]int32, n),
	}
	// Count the points per slot, numbering slots in order of first use,
	// then scatter the point indices stably: each slot's run of byCell
	// lists its points in ascending index order.
	slots := int32(0)
	for i, p := range points {
		if !field.Contains(p) {
			return nil, fmt.Errorf("geom: point %d at %v outside field %gx%g", i, p, field.Width, field.Height)
		}
		c := g.cellOf(p)
		e := g.entry(c)
		if e.key == 0 {
			*e = cellSlot{key: c + 1, slot: slots}
			slots++
		}
		g.start[e.slot]++
	}
	sum := int32(0)
	for s, c := range g.start[:slots+1] {
		g.start[s] = sum
		sum += c
	}
	for i, p := range points {
		s := g.entry(g.cellOf(p)).slot
		g.byCell[g.start[s]] = int32(i)
		g.start[s]++
	}
	// Each start[s] now ends slot s; shift them to begin slot s instead.
	copy(g.start[1:slots+1], g.start[:slots])
	g.start[0] = 0
	return g, nil
}

func (g *Grid) cellOf(p Point) int {
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// entry returns the table entry holding cell, or the free entry where it
// belongs (linear probing from a Fibonacci hash).
func (g *Grid) entry(cell int) *cellSlot {
	mask := len(g.table) - 1
	for h := int(uint64(cell) * 0x9E3779B97F4A7C15 >> g.shift); ; h = (h + 1) & mask {
		if e := &g.table[h]; e.key == cell+1 || e.key == 0 {
			return e
		}
	}
}

// blockBound bounds what Within can find: the most points any one point has
// in the 3×3 block of cells Within scans around it, besides itself, and
// half their sum, a bound on the unordered pairs within any radius up to
// the cell size.
func (g *Grid) blockBound() (pairs, widest int) {
	for _, p := range g.points {
		cx, cy := int(p.X/g.cellSize), int(p.Y/g.cellSize)
		block := -1
		for y := max(cy-1, 0); y <= min(cy+1, g.rows-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, g.cols-1); x++ {
				if e := g.entry(y*g.cols + x); e.key != 0 {
					block += int(g.start[e.slot+1] - g.start[e.slot])
				}
			}
		}
		pairs += block
		widest = max(widest, block)
	}
	return pairs / 2, widest
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.points) }

// Point returns the indexed point i.
func (g *Grid) Point(i int) Point { return g.points[i] }

// Within appends to dst the indices of all points within radius of
// g.Point(i), excluding i itself, and returns the extended slice. Radius must
// not exceed the grid cell size. Cells are visited row by row and each
// cell's points in ascending index order.
func (g *Grid) Within(i int, radius float64, dst []int32) []int32 {
	p := g.points[i]
	r2 := radius * radius
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			e := g.entry(y*g.cols + x)
			if e.key == 0 {
				continue
			}
			for _, j := range g.byCell[g.start[e.slot]:g.start[e.slot+1]] {
				if int(j) == i {
					continue
				}
				if p.Dist2(g.points[j]) <= r2 {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}
