package geom

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// mapGrid is the map-of-slices spatial hash Grid replaced, kept as the
// oracle: Within must return exactly its indices in exactly its order.
type mapGrid struct {
	cellSize   float64
	cols, rows int
	points     []Point
	cells      map[int][]int32
}

func newMapGrid(field Field, cellSize float64, points []Point) *mapGrid {
	g := &mapGrid{
		cellSize: cellSize,
		cols:     int(field.Width/cellSize) + 1,
		rows:     int(field.Height/cellSize) + 1,
		points:   points,
		cells:    make(map[int][]int32, len(points)),
	}
	for i, p := range points {
		cx, cy := min(int(p.X/cellSize), g.cols-1), min(int(p.Y/cellSize), g.rows-1)
		g.cells[cy*g.cols+cx] = append(g.cells[cy*g.cols+cx], int32(i))
	}
	return g
}

func (g *mapGrid) within(i int, radius float64) []int32 {
	var dst []int32
	p := g.points[i]
	cx, cy := int(p.X/g.cellSize), int(p.Y/g.cellSize)
	for y := cy - 1; y <= cy+1; y++ {
		for x := cx - 1; x <= cx+1; x++ {
			if y < 0 || y >= g.rows || x < 0 || x >= g.cols {
				continue
			}
			for _, j := range g.cells[y*g.cols+x] {
				if int(j) != i && p.Dist2(g.points[j]) <= radius*radius {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// mapLinks is Links on the oracle grid.
func mapLinks(field Field, radius float64, pts []Point) [][2]int32 {
	g := newMapGrid(field, radius, pts)
	var links [][2]int32
	for i := range pts {
		for _, j := range g.within(i, radius) {
			if int32(i) < j {
				links = append(links, [2]int32{int32(i), j})
			}
		}
	}
	return links
}

// gridField draws n points over field, a few of them exactly on its edges
// and corners (the far ones land in the last column or row).
func gridField(rng *rand.Rand, field Field, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * field.Width, rng.Float64() * field.Height}
		switch rng.Intn(8) {
		case 0:
			pts[i].X = field.Width
		case 1:
			pts[i].Y = field.Height
		case 2:
			pts[i] = Point{field.Width, field.Height}
		case 3:
			pts[i].X = 0
		}
	}
	return pts
}

func TestGridMatchesMapGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// Widths that are and are not whole multiples of the radius.
		field := Field{Width: float64(50 + rng.Intn(600)), Height: float64(50 + rng.Intn(600))}
		radius := float64(10 + rng.Intn(120))
		if trial%3 == 0 {
			field.Width = radius * float64(1+rng.Intn(6))
		}
		pts := gridField(rng, field, rng.Intn(300))
		grid, err := NewGrid(field, radius, pts)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newMapGrid(field, radius, pts)
		var got []int32
		for i := range pts {
			got = grid.Within(i, radius, got[:0])
			if want := oracle.within(i, radius); !slices.Equal(got, want) {
				t.Fatalf("trial %d point %d at %v: Within = %v, want %v", trial, i, pts[i], got, want)
			}
		}
		links, err := Links(field, radius, pts)
		if err != nil {
			t.Fatal(err)
		}
		if want := mapLinks(field, radius, pts); !slices.Equal(links, want) {
			t.Fatalf("trial %d: Links differ from the map grid's", trial)
		}
	}
}

// TestGridSparseHugeField indexes three points on a field of 10^12 unit
// cells: the grid's memory follows the points, not the area.
func TestGridSparseHugeField(t *testing.T) {
	field := Field{Width: 1e6, Height: 1e6}
	pts := []Point{{0, 0}, {0.5, 0.5}, {1e6, 1e6}}
	// TotalAlloc counts every goroutine's allocations, so one read can
	// take in the runtime's or another test's; the least of several reads
	// is NewGrid's own.
	var (
		grid  *Grid
		err   error
		least = uint64(math.MaxUint64)
	)
	for range 8 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		grid, err = NewGrid(field, 1, pts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("NewGrid over 3 points allocated %d bytes", least)
	}
	for i, want := range [][]int32{{1}, {0}, nil} {
		if got := grid.Within(i, 1, nil); !slices.Equal(got, want) {
			t.Errorf("Within(%d) = %v, want %v", i, got, want)
		}
	}
	if links, err := Links(field, 1, pts); err != nil || !slices.Equal(links, [][2]int32{{0, 1}}) {
		t.Errorf("Links = %v, %v; want [[0 1]]", links, err)
	}
}

// TestGridKeysFitEveryField indexes fields up to 10^30 cells across: a
// 400-wide field at radius 1e-9, a 10^30-wide one at radius 1 and a strip.
// Every cell index is non-negative, distinct cells have distinct indices,
// and Within finds every partner within the radius, coincident points
// included.
func TestGridKeysFitEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		field  Field
		radius float64
	}{{Field{400, 400}, 1e-9}, {Field{1e30, 1e30}, 1}, {Field{1e30, 1}, 1e-3}} {
		pts := gridField(rng, c.field, 60)
		pts = append(pts, pts[:20]...)
		grid, err := NewGrid(c.field, c.radius, pts)
		if err != nil {
			t.Fatal(err)
		}
		cells := map[int][2]int{}
		for i, p := range pts {
			key := grid.cellOf(p)
			cell := [2]int{min(int(p.X/grid.cellSize), grid.cols-1), min(int(p.Y/grid.cellSize), grid.rows-1)}
			if prev, ok := cells[key]; key < 0 || ok && prev != cell {
				t.Fatalf("field %v radius %g: cell %v has index %d (cell %v has it too: %t)", c.field, c.radius, cell, key, prev, ok)
			}
			cells[key] = cell
			var want []int32
			for j, q := range pts {
				if j != i && p.Dist2(q) <= c.radius*c.radius {
					want = append(want, int32(j))
				}
			}
			got := grid.Within(i, c.radius, nil)
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("field %v radius %g point %d at %v: Within = %v, want %v", c.field, c.radius, i, p, got, want)
			}
		}
	}
}

func TestNewGridAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := Field{Width: 600, Height: 600}
	allocs := func(n int) float64 {
		pts := gridField(rng, field, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := NewGrid(field, 100, pts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(143), allocs(1500)
	if small != large {
		t.Errorf("NewGrid allocates %v times at 143 points and %v at 1,500", small, large)
	}
	t.Logf("NewGrid allocations: %v", small)
}

// Links sizes its result and its scratch from the grid's cell counts, so a
// call allocates as often at 143 points as at 1,500: the grid's arrays, the
// links and the scratch, however many links there are.
func TestLinksAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := Field{Width: 600, Height: 600}
	allocs := func(n int) float64 {
		pts := gridField(rng, field, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := Links(field, 100, pts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(143), allocs(1500)
	if small != large {
		t.Errorf("Links allocates %v times at 143 points and %v at 1,500", small, large)
	}
	t.Logf("Links allocations: %v", small)
}

// BenchmarkLinks extracts the unit-disk links of a 1,500-point field at
// degree about 14 (the scale-1500 and traffic workloads' field build).
func BenchmarkLinks(b *testing.B) {
	field := Field{Width: 1800, Height: 1800}
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1500)
	for i := range pts {
		pts[i] = Point{rng.Float64() * field.Width, rng.Float64() * field.Height}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Links(field, 100, pts); err != nil {
			b.Fatal(err)
		}
	}
}
