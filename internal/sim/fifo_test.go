package sim

import "testing"

func TestFIFOOrderAndWraparound(t *testing.T) {
	var q FIFO[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero FIFO must be empty")
	}
	// Interleave pushes and pops so the ring wraps several times.
	next, expect := 0, 0
	for round := 0; round < 20; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		if q.Peek() != expect {
			t.Fatalf("Peek = %d, want %d", q.Peek(), expect)
		}
		for i := 0; i < q.Len(); i++ {
			if got := q.At(i); got != expect+i {
				t.Fatalf("At(%d) = %d, want %d", i, got, expect+i)
			}
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("Pop = %d, want %d (FIFO order violated)", got, expect)
			}
			expect++
		}
	}
	for !q.Empty() {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d items, pushed %d", expect, next)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	var q FIFO[int]
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of empty FIFO must panic")
		}
	}()
	q.Pop()
}

func TestFIFOPeekEmptyPanics(t *testing.T) {
	var q FIFO[int]
	defer func() {
		if recover() == nil {
			t.Fatal("Peek of empty FIFO must panic")
		}
	}()
	q.Peek()
}

func TestFIFOAtOutOfRangePanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At past the tail must panic")
		}
	}()
	q.At(1)
}
