package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: noParent, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a, as parallel loop bodies do
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of root
		{ID: 6, Parent: 4, Name: "b1", Start: 30, End: 60}, // covers all of b
	}
	self, kids := analyze(spans)
	// root: its children cover [10,60] and [90,100], 60 of its 100.
	want := []int64{40, 20, 10, 0, 30, 30}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if len(kids[0]) != 3 || len(kids[1]) != 1 || len(kids[3]) != 1 || len(kids[2]) != 0 {
		t.Errorf("children = %v", kids)
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 5}}, 5},
		{[][2]int64{{10, 20}, {0, 5}}, 15},
		{[][2]int64{{0, 10}, {2, 4}}, 10},
		{[][2]int64{{0, 5}, {5, 10}}, 10},
		{[][2]int64{{0, 6}, {4, 10}, {20, 21}}, 11},
	}
	for _, c := range cases {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestLanesAcrossGoroutines(t *testing.T) {
	tr := NewTracer()
	ln := tr.Lane()
	root := ln.Begin("root", noParent)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.Lane()
			s := l.Begin("child", root)
			time.Sleep(2 * time.Millisecond)
			l.End(s, 3)
		}()
	}
	wg.Wait()
	ln.End(root, 1)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	self, kids := analyze(spans)
	for i, s := range spans {
		switch s.Name {
		case "root":
			if len(kids[i]) != 2 || self[i] >= s.End-s.Start {
				t.Errorf("root: %d children, self %d of %d", len(kids[i]), self[i], s.End-s.Start)
			}
		case "child":
			if s.Parent != root || s.Calls != 3 || self[i] != s.End-s.Start {
				t.Errorf("child span %+v, self %d", s, self[i])
			}
		}
	}
	tr.Reset()
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("%d spans after Reset", n)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	ln := tr.Lane()
	id := ln.Begin("x", noParent)
	ln.End(id, 1)
	tr.AddAlloc("core.refine", 10)
	if tr.Allocated() != 0 {
		t.Error("nil tracer reports allocations")
	}
}
