package band

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdtw/internal/match"
)

// TestCoreColumnsMonotone verifies the DESIGN.md invariant that the
// adaptive candidate mapping is monotone non-decreasing: interval
// interpolation can stretch or squeeze time but never reverse it.
func TestCoreColumnsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 20+rng.Intn(150), 20+rng.Intn(150)
		var bx, by []int
		px, py := 0, 0
		for {
			px += 1 + rng.Intn(12)
			py += 1 + rng.Intn(12)
			if px >= nx-1 || py >= ny-1 {
				break
			}
			bx = append(bx, px)
			by = append(by, py)
		}
		al := alignmentWith(nx, ny, bx, by)
		var bu Builder
		core := bu.coreColumns(al, true)
		for i := 1; i < len(core); i++ {
			if core[i] < core[i-1] {
				return false
			}
		}
		// Endpooints anchor the grid corners.
		return core[0] == 0 || len(bx) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreColumnsEndpoints checks corner anchoring for adaptive cores.
func TestCoreColumnsEndpoints(t *testing.T) {
	al := alignmentWith(100, 140, []int{40, 70}, []int{50, 100})
	var bu Builder
	core := bu.coreColumns(al, true)
	if core[0] != 0 {
		t.Fatalf("core starts at %d, want 0", core[0])
	}
	if core[99] != 139 {
		t.Fatalf("core ends at %d, want 139", core[99])
	}
	// Boundary positions map exactly.
	if core[40] != 50 {
		t.Fatalf("core[40] = %d, want 50", core[40])
	}
	if core[70] != 100 {
		t.Fatalf("core[70] = %d, want 100", core[70])
	}
}

// TestCoreColumnsDiagonalWithoutBoundaries: no alignment evidence means
// the scaled diagonal.
func TestCoreColumnsDiagonalWithoutBoundaries(t *testing.T) {
	al := alignmentWith(50, 100, nil, nil)
	var bu Builder
	core := bu.coreColumns(al, true)
	if core[0] != 0 || core[49] != 99 {
		t.Fatalf("diagonal endpoints (%d,%d)", core[0], core[49])
	}
	mid := core[25]
	if mid < 45 || mid > 56 {
		t.Fatalf("diagonal midpoint %d", mid)
	}
}

// TestIntervalChain: the intervals of a partition chain from the first
// sample of each series to the last, each starting where the previous
// ended, and an alignment with no boundaries is one interval.
func TestIntervalChain(t *testing.T) {
	al := &match.Alignment{NX: 100, NY: 120, BoundsX: []int{30, 60}, BoundsY: []int{40, 80}}
	want := [][4]int{{0, 30, 0, 40}, {30, 60, 40, 80}, {60, 99, 80, 119}}
	for k, w := range want {
		if sx, ex, sy, ey := interval(al, k); [4]int{sx, ex, sy, ey} != w {
			t.Errorf("interval %d is %v, want %v", k, [4]int{sx, ex, sy, ey}, w)
		}
	}
	if sx, ex, sy, ey := interval(&match.Alignment{NX: 50, NY: 60}, 0); [4]int{sx, ex, sy, ey} != [4]int{0, 49, 0, 59} {
		t.Errorf("the one interval of a boundary-free alignment is %v", [4]int{sx, ex, sy, ey})
	}
}
