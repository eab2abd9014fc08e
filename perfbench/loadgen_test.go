package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestArrivalsDeterministic(t *testing.T) {
	a1, f1 := arrivals(7, mixedShape, 20*time.Second)
	a2, f2 := arrivals(7, mixedShape, 20*time.Second)
	if f1 != f2 || !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed gave different schedules")
	}
	a3, _ := arrivals(8, mixedShape, 20*time.Second)
	if reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestArrivalsShape(t *testing.T) {
	hot := 0
	for _, r := range hotRungs {
		hot += r.n
	}
	if hot != mixedShape.Hot {
		t.Fatalf("hot rungs make %d assays, the traffic mix expects %d", hot, mixedShape.Hot)
	}
	arr, fresh := arrivals(3, mixedShape, 100*time.Second)
	counts := map[reqKind]int{}
	firstSend := map[int]time.Duration{}
	for i, a := range arr {
		if i > 0 && a.Due < arr[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		counts[a.Kind]++
		switch a.Kind {
		case hotReq:
			if a.Body >= mixedShape.Hot {
				t.Fatalf("hot request for body %d", a.Body)
			}
		case freshReq:
			slot := time.Duration(float64(time.Second) / mixedShape.Rate)
			if prev, ok := firstSend[a.Body-1]; ok && a.Due-prev <= time.Duration(mixedShape.FreshGap)*slot {
				t.Fatalf("fresh requests %d and %d less than %d slots apart", a.Body-1, a.Body, mixedShape.FreshGap+1)
			}
			firstSend[a.Body] = a.Due
		case resendReq:
			if d, ok := firstSend[a.Body]; !ok || a.Due-d != mixedShape.ResendAfter {
				t.Fatalf("re-send of body %d not %v after its first send", a.Body, mixedShape.ResendAfter)
			}
		}
	}
	scheduled := counts[hotReq] + counts[freshReq]
	if want := int(100 * mixedShape.Rate); scheduled != want || counts[freshReq] != fresh || len(firstSend) != fresh {
		t.Fatalf("scheduled %d (%d fresh, %d distinct), want %d and %d",
			scheduled, counts[freshReq], len(firstSend), want, fresh)
	}
	if want := int(math.Round(mixedShape.HotShare * float64(scheduled))); counts[hotReq] != want {
		t.Errorf("%d hot requests, want %d", counts[hotReq], want)
	}
	if want := int(math.Round(mixedShape.ResendShare * float64(fresh))); counts[resendReq] != want {
		t.Errorf("%d re-sends, want %d", counts[resendReq], want)
	}
}

// TestRequestBodiesDeterministic pins the seed contract end to end: the
// same seed gives byte-identical request bodies.
func TestRequestBodiesDeterministic(t *testing.T) {
	rungs := []rung{{ops: 4, n: 2}, {ops: 5, n: 1}, {ops: 4, n: 1}}
	gen := func(seed uint64) [][]byte {
		benches, err := ladder(context.Background(), seed, rungs)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for i, b := range benches {
			if n, want := len(b.Assay.Ops()), []int{4, 4, 5, 4}[i]; n != want {
				t.Fatalf("instance %d has %d ops, want %d", i, n, want)
			}
			body, err := requestBody(b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
		}
		return out
	}
	a, b, c := gen(5), gen(5), gen(6)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two runs of seed 5", i)
		}
	}
	if bytes.Equal(a[0], c[0]) {
		t.Fatal("seeds 5 and 6 gave the same first body")
	}
	if bytes.Equal(a[0], a[3]) || bytes.Equal(a[0], a[1]) {
		t.Fatal("two instances of one size are identical")
	}
}
