package symbol

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestCanonSharesBacking(t *testing.T) {
	// Two fresh allocations of the same content must canonicalize to one
	// backing string.
	l1 := Canon(fmt.Sprintf("test-canon-%d", 7))
	l2 := Canon(fmt.Sprintf("test-canon-%d", 7))
	if l1 != "test-canon-7" {
		t.Fatalf("Canon changed the content: %q", l1)
	}
	if unsafe.StringData(l1) != unsafe.StringData(l2) {
		t.Fatalf("Canon returned different backings for equal content")
	}
}

func TestLookupDoesNotInsert(t *testing.T) {
	label := fmt.Sprintf("test-lookup-%d", 1)
	if c, ok := Lookup(label); ok {
		t.Fatalf("Lookup invented canonical %q", c)
	}
	if _, ok := Lookup(label); ok {
		t.Fatalf("a missed Lookup inserted %q", label)
	}
	canon := Canon(label)
	got, ok := Lookup(fmt.Sprintf("test-lookup-%d", 1))
	if !ok || got != label {
		t.Fatalf("Lookup after Canon = (%q, %v), want (%q, true)", got, ok, label)
	}
	if unsafe.StringData(got) != unsafe.StringData(canon) {
		t.Fatalf("Lookup returned a backing other than Canon's")
	}
}

func TestConcurrentIntern(t *testing.T) {
	const goroutines = 8
	const n = 200
	var wg sync.WaitGroup
	canon := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			canon[g] = make([]string, n)
			for i := 0; i < n; i++ {
				s := Canon(fmt.Sprintf("test-conc-%d", i))
				if s != fmt.Sprintf("test-conc-%d", i) {
					t.Errorf("canonical string mismatch: %q", s)
				}
				canon[g][i] = s
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < n; i++ {
			if unsafe.StringData(canon[g][i]) != unsafe.StringData(canon[0][i]) {
				t.Fatalf("goroutine %d interned %q to a backing other than goroutine 0's", g, canon[g][i])
			}
		}
	}
}
