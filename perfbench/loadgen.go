package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"pathdriverwash/internal/benchmarks"
	"pathdriverwash/internal/corpus"
	"pathdriverwash/internal/service"
	"pathdriverwash/pkg/pathdriver"
)

// reqKind classifies one open-loop request.
type reqKind int

const (
	hotReq    reqKind = iota // an assay of the hot set warmed during set-up
	freshReq                 // an assay the server has not seen
	resendReq                // a fresh assay sent again while its first solve runs
)

func (k reqKind) String() string {
	return [...]string{"hot", "fresh", "resend"}[k]
}

// arrival is one request of the open-loop schedule.
type arrival struct {
	// Due is the send time, as an offset from the start of the load.
	Due time.Duration
	// Body indexes the request-body table: hot assays first, then the
	// fresh ones in the order they are first sent.
	Body int
	Kind reqKind
}

// loadShape fixes the pdwd-mixed traffic mix.
type loadShape struct {
	Rate        float64       // scheduled requests per second
	Hot         int           // hot-set size
	HotShare    float64       // share of scheduled requests that hit the hot set
	FreshGap    int           // minimum free slots between fresh requests
	ResendShare float64       // share of fresh requests re-sent
	ResendAfter time.Duration // delay of a re-send after its first send
}

// arrivals builds the open-loop schedule for a run of length d: one
// request every 1/Rate seconds. A seeded choice of exactly a HotShare
// of them repeat the hot set, cycling through it in a seeded order;
// the rest send fresh assays, at least FreshGap free slots apart, and
// exactly a ResendShare of those are sent again ResendAfter later.
// Fixing the counts keeps the work of a run the same from seed to seed;
// spacing the fresh ones keeps the single worker from building a
// backlog that would shed requests. It returns the schedule sorted by
// due time and the number of fresh assays it needs; the schedule is a
// pure function of its arguments.
func arrivals(seed uint64, shape loadShape, d time.Duration) ([]arrival, int) {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f616467656e))
	n := int(shape.Rate * d.Seconds())
	step := time.Duration(float64(time.Second) / shape.Rate)
	fresh := n - int(math.Round(shape.HotShare*float64(n)))
	// Choosing fresh slots k_0 < k_1 < ... among the n-g(fresh-1) left
	// after reserving the gaps, and placing the i-th at k_i+g*i, leaves
	// g free slots between consecutive fresh ones.
	g := shape.FreshGap
	picks := rng.Perm(n - g*(fresh-1))[:fresh]
	sort.Ints(picks)
	isFresh := map[int]bool{}
	for i, k := range picks {
		isFresh[k+g*i] = true
	}
	resend := map[int]bool{}
	for _, j := range rng.Perm(fresh)[:int(math.Round(shape.ResendShare*float64(fresh)))] {
		resend[j] = true
	}
	hotOrder := rng.Perm(shape.Hot)
	var out []arrival
	hot, j := 0, 0
	for i := 0; i < n; i++ {
		due := time.Duration(i) * step
		if !isFresh[i] {
			out = append(out, arrival{Due: due, Body: hotOrder[hot%shape.Hot], Kind: hotReq})
			hot++
			continue
		}
		out = append(out, arrival{Due: due, Body: shape.Hot + j, Kind: freshReq})
		if resend[j] {
			out = append(out, arrival{Due: due + shape.ResendAfter, Body: shape.Hot + j, Kind: resendReq})
		}
		j++
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out, fresh
}

// densities are the contamination densities the ladders cycle through
// (the corpus package's own default set).
var densities = []float64{0.25, 0.6, 1.0}

// rung asks for n seeded corpus instances of exactly ops operations.
// With shapes or densities unset, the rung takes all four DAG shapes
// or all three contamination densities.
type rung struct {
	ops, n    int
	shapes    []corpus.Shape
	densities []float64
}

// ladder generates and validates the instances of each rung, in order.
// Each rung is one corpus.GenerateSweep, so shapes and contamination
// densities cycle across its instances; the cycle starts at a different
// shape and density on each rung, so single-instance rungs do not all
// share one.
func ladder(ctx context.Context, seed uint64, rungs []rung) ([]*benchmarks.Benchmark, error) {
	var out []*benchmarks.Benchmark
	for i, r := range rungs {
		shapes, dens := r.shapes, r.densities
		if shapes == nil {
			shapes = rotate(corpus.Shapes(), i)
		}
		if dens == nil {
			dens = rotate(densities, i)
		}
		benches, err := corpus.GenerateSweep(ctx, corpus.SweepConfig{
			Seed: seed<<8 | uint64(i), N: r.n, MinOps: r.ops, MaxOps: r.ops,
			Shapes: shapes, Densities: dens,
		})
		if err != nil {
			return nil, fmt.Errorf("ladder rung %d (%d ops): %w", i, r.ops, err)
		}
		out = append(out, benches...)
	}
	return out, nil
}

// rotate returns xs rotated left by r.
func rotate[T any](xs []T, r int) []T {
	r %= len(xs)
	return append(append([]T(nil), xs[r:]...), xs[:r]...)
}

// requestBody encodes the pdw.v1 wire request for one heuristic solve.
func requestBody(b *benchmarks.Benchmark) ([]byte, error) {
	return json.Marshal(service.SolveRequest{
		Schema:  service.SchemaV1,
		Method:  pathdriver.MethodPDW,
		Assay:   pathdriver.NewAssayDocument(b.Assay, b.Config),
		Options: pathdriver.Options{Heuristic: true},
	})
}
