package guestos

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"overshadow/internal/mach"
	"overshadow/internal/sim"
)

func newTestFS() *FS {
	return NewFS(sim.NewWorld(sim.DefaultCostModel(), 3), 4096)
}

func TestFSCreateLookupStat(t *testing.T) {
	fs := newTestFS()
	ino, err := fs.Create("/a.txt", false)
	if err != OK {
		t.Fatal(err)
	}
	st, err := fs.Stat("/a.txt")
	if err != OK || st.Ino != ino || st.Type != TypeFile || st.Size != 0 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	if _, err := fs.Stat("/missing"); err != ENOENT {
		t.Fatalf("missing stat: %v", err)
	}
}

func TestFSDirectoryTree(t *testing.T) {
	fs := newTestFS()
	if err := fs.Mkdir("/a"); err != OK {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b"); err != OK {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a/b/c.txt", false); err != OK {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("/a")
	if err != OK || len(names) != 1 || names[0] != "b" {
		t.Fatalf("readdir /a = %v, %v", names, err)
	}
	if err := fs.Mkdir("/a"); err != EEXIST {
		t.Fatalf("dup mkdir: %v", err)
	}
	if _, err := fs.Create("/nope/x", false); err != ENOENT {
		t.Fatalf("create in missing dir: %v", err)
	}
	if err := fs.Unlink("/a/b"); err != ENOTSUP {
		t.Fatalf("unlink non-empty dir: %v", err)
	}
}

func TestFSReadWriteSparse(t *testing.T) {
	fs := newTestFS()
	ino, _ := fs.Create("/s", false)
	// Write far past the start: hole reads as zeros.
	if _, err := fs.WriteAt(ino, 3*4096+17, []byte("tail")); err != OK {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := fs.ReadAt(ino, 4096, buf)
	if err != OK || n != 8 {
		t.Fatalf("hole read = %d, %v", n, err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatal("hole not zero")
	}
	n, err = fs.ReadAt(ino, 3*4096+17, buf)
	if err != OK || n != 4 {
		t.Fatalf("tail read = %d, %v", n, err)
	}
	if string(buf[:4]) != "tail" {
		t.Fatalf("tail = %q", buf[:4])
	}
}

func TestFSUnlinkFreesBlocks(t *testing.T) {
	fs := newTestFS()
	before := fs.freeBlk.len()
	ino, _ := fs.Create("/big", false)
	if _, err := fs.WriteAt(ino, 0, make([]byte, 64*1024)); err != OK {
		t.Fatal(err)
	}
	if fs.freeBlk.len() >= before {
		t.Fatal("no blocks consumed")
	}
	if err := fs.Unlink("/big"); err != OK {
		t.Fatal(err)
	}
	if fs.freeBlk.len() != before {
		t.Fatalf("blocks leaked: %d -> %d", before, fs.freeBlk.len())
	}
}

// TestFSCacheBoundAfterUnlink frees a fully cached file and then writes
// fresh blocks: the block cache must stay within cacheCap, and its FIFO key
// list must name exactly the cached blocks, each once.
func TestFSCacheBoundAfterUnlink(t *testing.T) {
	fs := newTestFS()
	ino, _ := fs.Create("/old", false)
	if _, err := fs.WriteAt(ino, 0, make([]byte, fs.cacheCap*mach.PageSize)); err != OK {
		t.Fatal(err)
	}
	if err := fs.Unlink("/old"); err != OK {
		t.Fatal(err)
	}
	ino, _ = fs.Create("/new", false)
	if _, err := fs.WriteAt(ino, 0, make([]byte, 300*mach.PageSize)); err != OK {
		t.Fatal(err)
	}
	if len(fs.cache) > fs.cacheCap {
		t.Errorf("cache holds %d blocks, capacity %d", len(fs.cache), fs.cacheCap)
	}
	listed := map[uint64]bool{}
	for _, b := range fs.cacheKeys {
		if listed[b] {
			t.Errorf("block %d listed twice in cacheKeys", b)
		}
		listed[b] = true
		if _, ok := fs.cache[b]; !ok {
			t.Errorf("cacheKeys lists uncached block %d", b)
		}
	}
	if len(fs.cacheKeys) != len(fs.cache) {
		t.Errorf("cacheKeys has %d entries for %d cached blocks", len(fs.cacheKeys), len(fs.cache))
	}
}

func TestFSDiskFull(t *testing.T) {
	w := sim.NewWorld(sim.DefaultCostModel(), 3)
	fs := NewFS(w, 4) // 4 blocks total
	ino, _ := fs.Create("/f", false)
	if _, err := fs.WriteAt(ino, 0, make([]byte, 10*4096)); err != ENOSPC {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// After freeing, writes work again.
	fs.Truncate("/f", 0)
	if _, err := fs.WriteAt(ino, 0, make([]byte, 2*4096)); err != OK {
		t.Fatalf("write after truncate: %v", err)
	}
}

// TestFSModelBased runs random operation sequences against the FS and an
// in-memory reference model; contents and sizes must always agree.
func TestFSModelBased(t *testing.T) {
	fs := newTestFS()
	rng := sim.NewRNG(99)
	type ref struct{ data []byte }
	model := map[string]*ref{}
	inos := map[string]Ino{}

	paths := []string{"/f0", "/f1", "/f2", "/f3"}
	for step := 0; step < 3000; step++ {
		path := paths[rng.Intn(len(paths))]
		switch rng.Intn(5) {
		case 0: // create (truncating)
			ino, err := fs.Create(path, true)
			if err != OK {
				t.Fatalf("step %d create: %v", step, err)
			}
			inos[path] = ino
			model[path] = &ref{}
		case 1: // write at random offset
			if m, ok := model[path]; ok {
				off := rng.Intn(20000)
				n := rng.Intn(6000) + 1
				data := make([]byte, n)
				rng.Bytes(data)
				if _, err := fs.WriteAt(inos[path], uint64(off), data); err != OK {
					t.Fatalf("step %d write: %v", step, err)
				}
				if need := off + n; need > len(m.data) {
					m.data = append(m.data, make([]byte, need-len(m.data))...)
				}
				copy(m.data[off:], data)
			}
		case 2: // read at random offset and compare
			if m, ok := model[path]; ok {
				off := rng.Intn(25000)
				n := rng.Intn(6000) + 1
				got := make([]byte, n)
				gn, err := fs.ReadAt(inos[path], uint64(off), got)
				if err != OK {
					t.Fatalf("step %d read: %v", step, err)
				}
				want := []byte{}
				if off < len(m.data) {
					end := off + n
					if end > len(m.data) {
						end = len(m.data)
					}
					want = m.data[off:end]
				}
				if gn != len(want) || !bytes.Equal(got[:gn], want) {
					t.Fatalf("step %d read mismatch at %s+%d len %d (got %d bytes)",
						step, path, off, n, gn)
				}
			}
		case 3: // stat and compare size
			if m, ok := model[path]; ok {
				st, err := fs.Stat(path)
				if err != OK {
					t.Fatalf("step %d stat: %v", step, err)
				}
				if st.Size != uint64(len(m.data)) {
					t.Fatalf("step %d size %d, want %d", step, st.Size, len(m.data))
				}
			}
		case 4: // unlink
			if _, ok := model[path]; ok && rng.Intn(4) == 0 {
				if err := fs.Unlink(path); err != OK {
					t.Fatalf("step %d unlink: %v", step, err)
				}
				delete(model, path)
				delete(inos, path)
			}
		}
	}
}

func TestFSWriteReadPageProperty(t *testing.T) {
	fs := newTestFS()
	ino, _ := fs.Create("/p", false)
	f := func(idx uint8, fill byte) bool {
		page := make([]byte, 4096)
		for i := range page {
			page[i] = fill ^ byte(i)
		}
		if err := fs.WriteFilePage(ino, uint64(idx%32), page); err != OK {
			return false
		}
		got := make([]byte, 4096)
		if err := fs.ReadFilePage(ino, uint64(idx%32), got); err != OK {
			return false
		}
		return bytes.Equal(page, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPath(t *testing.T) {
	cases := map[string]int{
		"/":          0,
		"/a":         1,
		"/a/b/c":     3,
		"a/b":        2,
		"//x//y/":    2,
		"/./a/./b/.": 2,
	}
	for p, n := range cases {
		if got := len(splitPath(p)); got != n {
			t.Errorf("splitPath(%q) = %d parts, want %d", p, got, n)
		}
	}
}

func TestFSHostHelpersErrors(t *testing.T) {
	fs := newTestFS()
	if _, err := fs.ReadFile("/ghost"); err != ENOENT {
		t.Fatalf("ReadFile ghost: %v", err)
	}
	if err := fs.WriteFile("/x/y", []byte("z")); err != ENOENT {
		t.Fatalf("WriteFile in missing dir: %v", err)
	}
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("/file%02d", i)
		if err := fs.WriteFile(p, []byte{byte(i)}); err != OK {
			t.Fatal(err)
		}
	}
	names, err := fs.ReadDir("/")
	if err != OK || len(names) != 50 {
		t.Fatalf("readdir: %d names, %v", len(names), err)
	}
}
