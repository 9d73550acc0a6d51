package symbol

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestInternDense(t *testing.T) {
	a1, s1 := Intern("test-intern-a")
	b1, _ := Intern("test-intern-b")
	a2, s2 := Intern("test-intern-a")
	if a1 != a2 {
		t.Fatalf("same string interned to different ids: %d vs %d", a1, a2)
	}
	if a1 == b1 {
		t.Fatalf("distinct strings share id %d", a1)
	}
	if a1 == None || b1 == None {
		t.Fatalf("valid symbols must not be None")
	}
	if unsafe.StringData(s1) != unsafe.StringData(s2) {
		t.Fatalf("canonical strings for one symbol have different backings")
	}
	if String(a1) != "test-intern-a" {
		t.Fatalf("String(%d) = %q", a1, String(a1))
	}
}

func TestLookupDoesNotInsert(t *testing.T) {
	before := Size()
	if id, ok := Lookup("test-never-interned-label"); ok {
		t.Fatalf("Lookup invented symbol %d", id)
	}
	if Size() != before {
		t.Fatalf("Lookup grew the table: %d -> %d", before, Size())
	}
	id, _ := Intern("test-now-interned-label")
	got, ok := Lookup("test-now-interned-label")
	if !ok || got != id {
		t.Fatalf("Lookup after Intern = (%d, %v), want (%d, true)", got, ok, id)
	}
}

func TestCanonSharesBacking(t *testing.T) {
	// Two fresh allocations of the same content must canonicalize to one
	// backing string.
	l1 := Canon(fmt.Sprintf("test-canon-%d", 7))
	l2 := Canon(fmt.Sprintf("test-canon-%d", 7))
	if unsafe.StringData(l1) != unsafe.StringData(l2) {
		t.Fatalf("Canon returned different backings for equal content")
	}
}

func TestConcurrentIntern(t *testing.T) {
	const goroutines = 8
	const n = 200
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, n)
			for i := 0; i < n; i++ {
				id, s := Intern(fmt.Sprintf("test-conc-%d", i))
				if s != fmt.Sprintf("test-conc-%d", i) {
					t.Errorf("canonical string mismatch: %q", s)
				}
				ids[g][i] = id
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < n; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned %d to %d, goroutine 0 got %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
}
