package main

import (
	"slices"
	"testing"
)

func TestCheckerFlagsInjectedFaults(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		if err := selfTest(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestKeysSortLikeIDs(t *testing.T) {
	prev := ""
	for _, id := range []int{0, 1, 9, 10, 99, 100, 159_999, 1_000_000} {
		k := putKey(nil, id)
		if got := keyID(k); got != id {
			t.Fatalf("keyID(%q) = %d, want %d", k, got, id)
		}
		if string(k) <= prev {
			t.Fatalf("key %q does not sort after %q", k, prev)
		}
		prev = string(k)
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	draw := func(seed uint64) []int {
		p := newKeyPicker(1000, 0.99, seed)
		r := newRNG(seed, 2)
		out := make([]int, 200)
		for i := range out {
			out[i] = p.pick(r)
		}
		return out
	}
	if !slices.Equal(draw(7), draw(7)) {
		t.Fatal("one seed gave two key streams")
	}
	if slices.Equal(draw(7), draw(8)) {
		t.Fatal("two seeds gave one key stream")
	}
}

func TestLatHistQuantilesWithinABucket(t *testing.T) {
	r := newRNG(3, 9)
	h := new(latHist)
	var exact []uint32
	for i := 0; i < 50_000; i++ {
		// Mostly microseconds, a tail up to seconds, and the top value.
		ns := uint32(500 + r.next()%40_000)
		switch i % 100 {
		case 0:
			ns = uint32(r.next() % (1 << 31))
		case 1:
			ns = 1<<32 - 1
		}
		h.add(ns)
		exact = append(exact, ns)
	}
	slices.Sort(exact)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(exact[min(int(q*float64(len(exact))), len(exact)-1)]) / 1e3
		got := h.quantileUS(q)
		if got > want || got < want*(1-1.0/1024) {
			t.Errorf("q=%g: histogram %.3f µs, exact %.3f µs", q, got, want)
		}
	}
}
