package main

// A self-test of the checker, run before every measurement: a store that
// serves one stale value, drops one write and misorders one scan must
// produce exactly three failed operations, each on the operation the
// fault corrupts, and clean operations around them must pass.

import (
	"errors"
	"fmt"

	"github.com/ariakv/aria"
)

// faultyStore injects one fault per armed flag into an otherwise correct
// store.
type faultyStore struct {
	aria.Store
	dropPut, staleGet, swapScan bool
	old                         []byte // the value the next stale Get serves
}

func (f *faultyStore) Put(k, v []byte) error {
	if f.dropPut {
		f.dropPut = false
		return nil
	}
	if f.staleGet {
		old, err := f.Store.Get(k)
		if err != nil {
			return err
		}
		f.old = old
	}
	return f.Store.Put(k, v)
}

func (f *faultyStore) Get(k []byte) ([]byte, error) {
	if f.staleGet && f.old != nil {
		f.staleGet = false
		return f.old, nil
	}
	return f.Store.Get(k)
}

func (f *faultyStore) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	if !f.swapScan {
		return f.Store.(aria.Ranger).Scan(start, end, fn)
	}
	f.swapScan = false
	var first [2][]byte
	n := 0
	return f.Store.(aria.Ranger).Scan(start, end, func(k, v []byte) bool {
		n++
		switch n {
		case 1:
			first = [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)}
			return true
		case 2:
			return fn(k, v) && fn(first[0], first[1])
		}
		return fn(k, v)
	})
}

func selfTest(seed uint64) error {
	const keys = 2000
	m := newModel(seed, keys, fixedSize(64), nil)
	m.reset()
	st, err := aria.Open(aria.Options{Scheme: aria.AriaBPTree, EPCBytes: 1 << 20, ExpectedKeys: keys, Seed: seed})
	if err != nil {
		return err
	}
	s := &session{st: st}
	if err := s.load(m); err != nil {
		return err
	}
	f := &faultyStore{Store: st}
	r := newRunner(m, nil, nil)
	r.kv, r.ranger = f, f
	live := m.scan(0, 3, nil)
	a, b, c := live[0], live[1], live[2]
	steps := []struct {
		name  string
		arm   func()
		op    func() error
		fails bool
	}{
		{"clean get", nil, func() error { return r.getID(a) }, false},
		{"clean scan", nil, func() error { return r.scanFrom(0) }, false},
		{"dropped put", func() { f.dropPut = true }, func() error { return r.putID(b, false) }, false},
		{"get after dropped put", nil, func() error { return r.getID(b) }, true},
		{"put before stale get", func() { f.staleGet = true }, func() error { return r.putID(c, false) }, false},
		{"stale get", nil, func() error { return r.getID(c) }, true},
		{"misordered scan", func() { f.swapScan = true }, func() error { return r.scanFrom(0) }, true},
		{"clean put", nil, func() error { return r.putID(a, false) }, false},
		{"clean get after put", nil, func() error { return r.getID(a) }, false},
	}
	for _, step := range steps {
		if step.arm != nil {
			step.arm()
		}
		err := step.op()
		if err != nil {
			r.fail(err)
		}
		if got := err != nil; got != step.fails {
			return fmt.Errorf("checker self-test: %s: failed=%v, want %v (err %v)", step.name, got, step.fails, err)
		}
		if err != nil && !errors.Is(err, errMismatch) {
			return fmt.Errorf("checker self-test: %s: unexpected error %w", step.name, err)
		}
	}
	if r.failed != 3 {
		return fmt.Errorf("checker self-test: %d failed operations, want 3", r.failed)
	}
	return nil
}
