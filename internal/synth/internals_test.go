package synth

import (
	"context"
	"testing"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

func TestStreetCoords(t *testing.T) {
	got := streetCoords(3)
	want := []int{1, 4, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("streetCoords(3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streetCoords(3) = %v want %v", got, want)
		}
	}
}

func TestPickSpreadsAndClamps(t *testing.T) {
	cands := []int{1, 4, 7, 10}
	if v := pick(cands, 0, 1); v != 7 { // middle-ish for a single pick
		t.Errorf("pick single = %d", v)
	}
	if v := pick(cands, 0, 0); v < 1 || v > 10 {
		t.Errorf("pick with n=0 out of range: %d", v)
	}
	// Large index must clamp to the last candidate.
	if v := pick(cands, 9, 2); v != 10 {
		t.Errorf("pick clamp = %d want 10", v)
	}
}

func TestPortSpotEdges(t *testing.T) {
	xs, ys := streetCoords(3), streetCoords(2)
	w, h := 12, 9
	top := portSpot(w, h, xs, ys, 0, 2, true)
	if top.Y != 0 {
		t.Errorf("first flow port should sit on the top edge: %v", top)
	}
	leftP := portSpot(w, h, xs, ys, 1, 2, true)
	if leftP.X != 0 {
		t.Errorf("second flow port should sit on the left edge: %v", leftP)
	}
	bottom := portSpot(w, h, xs, ys, 0, 2, false)
	if bottom.Y != h-1 {
		t.Errorf("first waste port should sit on the bottom edge: %v", bottom)
	}
	rightP := portSpot(w, h, xs, ys, 1, 2, false)
	if rightP.X != w-1 {
		t.Errorf("second waste port should sit on the right edge: %v", rightP)
	}
}

func TestClassifySegments(t *testing.T) {
	res, err := Synthesize(context.Background(), chainAssay(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	chip := res.Chip
	src := res.Binding["o1"]
	dst := res.Binding["o2"]
	path, err := routeComplete(chip, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg := classify(chip, path, src, dst)
	// Sensitive region includes all device cells of both endpoints.
	sens := map[geom.Point]bool{}
	for _, c := range seg.sensitive {
		sens[c] = true
	}
	for _, c := range src.Cells() {
		if !sens[c] {
			t.Errorf("source cell %v not sensitive", c)
		}
	}
	for _, c := range dst.Cells() {
		if !sens[c] {
			t.Errorf("destination cell %v not sensitive", c)
		}
	}
	// Excess cells sit immediately before the destination on the path.
	for _, e := range seg.excess {
		if !path.Contains(e) {
			t.Errorf("excess cell %v off path", e)
		}
		if chip.DeviceAt(e) != nil {
			t.Errorf("excess cell %v inside a device", e)
		}
	}
	// Contamination never touches ports.
	for _, c := range seg.contam {
		if chip.PortAt(c) != nil {
			t.Errorf("contam cell %v is a port", c)
		}
	}
}

func TestTailContam(t *testing.T) {
	p := grid.NewPath(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0))
	tc := tailContam(p, geom.Pt(1, 0))
	// From (1,0) to the second-to-last cell.
	if len(tc) != 2 || tc[0] != geom.Pt(1, 0) || tc[1] != geom.Pt(2, 0) {
		t.Fatalf("tailContam = %v", tc)
	}
	// Unknown start falls back to the whole prefix.
	tc2 := tailContam(p, geom.Pt(9, 9))
	if len(tc2) != 3 {
		t.Fatalf("tailContam fallback = %v", tc2)
	}
}

func TestTravelSecondsRounding(t *testing.T) {
	res, err := Synthesize(context.Background(), chainAssay(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	chip := res.Chip // 1 mm cells, 10 mm/s
	cells := make([]geom.Point, 0, 15)
	for x := 1; x <= 15; x++ {
		cells = append(cells, geom.Pt(x, 1))
	}
	p15 := grid.NewPath(cells...)
	if d := travelSeconds(chip, p15); d != 2 { // 15 mm / 10 mm/s = 1.5 -> 2
		t.Errorf("travelSeconds(15 cells) = %d want 2", d)
	}
	p1 := grid.NewPath(geom.Pt(1, 1))
	if d := travelSeconds(chip, p1); d != 1 { // floor at 1 s
		t.Errorf("travelSeconds(1 cell) = %d want 1", d)
	}
}

func TestRouteCompleteInjectionShape(t *testing.T) {
	res, err := Synthesize(context.Background(), chainAssay(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	chip := res.Chip
	dst := res.Binding["o1"]
	p, err := routeComplete(chip, nil, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateComplete(chip); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range p.Cells {
		if chip.DeviceAt(c) == dst {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("injection path misses the destination device")
	}
	// Must not cross any other device.
	for _, c := range p.Cells {
		if d := chip.DeviceAt(c); d != nil && d != dst {
			t.Fatalf("injection path crosses unrelated device %s", d.ID)
		}
	}
}
