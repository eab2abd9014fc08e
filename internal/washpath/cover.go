package washpath

import (
	"context"
	"fmt"
	"sort"

	"pathdriverwash/internal/geom"
	"pathdriverwash/internal/grid"
)

// BuildCoverContext constructs one or more wash paths that together
// cover all targets. It first tries a single path (ILP or heuristic per
// opts); when the target set cannot be served by one simple path — e.g.
// a channel chain with a device block hanging off it — the set is split
// into device blocks and channel components, each washed separately.
// Returns the plans and the target subset each plan covers. A canceled
// ctx degrades exact-mode paths to the BFS heuristic (see Build).
func BuildCoverContext(ctx context.Context, chip *grid.Chip, targets []geom.Point, opts Options) ([]Plan, [][]geom.Point, error) {
	plan, err := Build(ctx, chip, Request{Targets: targets}, opts)
	if err == nil {
		return []Plan{plan}, [][]geom.Point{targets}, nil
	}
	parts := splitTargets(chip, targets)
	if len(parts) == 1 && len(parts[0]) == len(targets) {
		// No device/channel split possible; decompose the component
		// into simple chains (a T- or plus-shaped region cannot be
		// covered by one simple path under Eq. 14).
		parts = chainDecompose(targets)
		if len(parts) <= 1 {
			return nil, nil, fmt.Errorf("washpath: cannot cover %v: %w", targets, err)
		}
	}
	var plans []Plan
	var covered [][]geom.Point
	for _, part := range parts {
		p, perr := Build(ctx, chip, Request{Targets: part}, opts)
		if perr != nil {
			// Last resort: break the part into chains.
			chains := chainDecompose(part)
			if len(chains) <= 1 {
				return nil, nil, fmt.Errorf("washpath: cannot cover split part %v: %w", part, perr)
			}
			for _, ch := range chains {
				cp, cerr := Build(ctx, chip, Request{Targets: ch}, opts)
				if cerr != nil {
					return nil, nil, fmt.Errorf("washpath: cannot cover chain %v: %w", ch, cerr)
				}
				plans = append(plans, cp)
				covered = append(covered, ch)
			}
			continue
		}
		plans = append(plans, p)
		covered = append(covered, part)
	}
	return plans, covered, nil
}

// chainDecompose splits a cell set into a small number of chains, each
// traversable by a simple path: repeatedly walk greedily from a
// lowest-degree remaining cell, emitting one chain per walk.
func chainDecompose(cells []geom.Point) [][]geom.Point {
	remaining := map[geom.Point]bool{}
	for _, c := range cells {
		remaining[c] = true
	}
	deg := func(p geom.Point) int {
		n := 0
		for _, q := range p.Neighbors() {
			if remaining[q] {
				n++
			}
		}
		return n
	}
	var chains [][]geom.Point
	for len(remaining) > 0 {
		var start geom.Point
		best := 5
		ordered := make([]geom.Point, 0, len(remaining))
		for p := range remaining {
			ordered = append(ordered, p)
		}
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].Y != ordered[j].Y {
				return ordered[i].Y < ordered[j].Y
			}
			return ordered[i].X < ordered[j].X
		})
		for _, p := range ordered {
			if d := deg(p); d < best {
				start, best = p, d
			}
		}
		chain := []geom.Point{start}
		delete(remaining, start)
		cur := start
		for {
			var next geom.Point
			found := false
			nb := 5
			for _, q := range cur.Neighbors() {
				if !remaining[q] {
					continue
				}
				if d := deg(q); !found || d < nb {
					next, nb, found = q, d, true
				}
			}
			if !found {
				break
			}
			chain = append(chain, next)
			delete(remaining, next)
			cur = next
		}
		chains = append(chains, chain)
	}
	return chains
}

// splitTargets partitions targets into per-device blocks and connected
// channel components.
func splitTargets(chip *grid.Chip, targets []geom.Point) [][]geom.Point {
	byDev := map[*grid.Device][]geom.Point{}
	var devs []*grid.Device
	var channel []geom.Point
	for _, t := range targets {
		if d := chip.DeviceAt(t); d != nil {
			if _, ok := byDev[d]; !ok {
				devs = append(devs, d)
			}
			byDev[d] = append(byDev[d], t)
		} else {
			channel = append(channel, t)
		}
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	var parts [][]geom.Point
	for _, d := range devs {
		parts = append(parts, byDev[d])
	}
	parts = append(parts, connectedParts(channel)...)
	return parts
}

// connectedParts splits cells into 4-connected components.
func connectedParts(cells []geom.Point) [][]geom.Point {
	set := map[geom.Point]bool{}
	for _, c := range cells {
		set[c] = true
	}
	seen := map[geom.Point]bool{}
	var parts [][]geom.Point
	ordered := append([]geom.Point(nil), cells...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Y != ordered[j].Y {
			return ordered[i].Y < ordered[j].Y
		}
		return ordered[i].X < ordered[j].X
	})
	for _, c := range ordered {
		if seen[c] {
			continue
		}
		var comp []geom.Point
		stack := []geom.Point{c}
		seen[c] = true
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, p)
			for _, q := range p.Neighbors() {
				if set[q] && !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool {
			if comp[i].Y != comp[j].Y {
				return comp[i].Y < comp[j].Y
			}
			return comp[i].X < comp[j].X
		})
		parts = append(parts, comp)
	}
	return parts
}
