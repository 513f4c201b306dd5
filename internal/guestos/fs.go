package guestos

import (
	"sort"
	"strings"

	"overshadow/internal/mach"
	"overshadow/internal/sim"
)

// Ino is an inode number.
type Ino uint64

// FileType distinguishes inode kinds.
type FileType uint8

// Inode kinds.
const (
	TypeFile FileType = iota
	TypeDir
)

// StatInfo is what stat/fstat report.
type StatInfo struct {
	Ino   Ino
	Type  FileType
	Size  uint64
	Pages uint64
}

type inode struct {
	ino      Ino
	typ      FileType
	size     uint64
	blocks   []uint64       // one disk block per file page
	children map[string]Ino // directories
	nlink    int
}

// FS is a simple block filesystem: a tree of directories, files whose pages
// live on the simulated disk, a free-block list, and a small write-through
// block cache so hot files do not pay disk latency on every access.
type FS struct {
	world     *sim.World
	disk      *mach.Disk
	inodes    map[Ino]*inode
	nextIno   Ino
	freeBlk   freeList
	cache     map[uint64][]byte
	cacheCap  int
	cacheKeys []uint64
	// scratch is the page-sized staging buffer for byte-granular ReadAt/
	// WriteAt; every loop iteration fully refills it (ReadFilePage reads a
	// whole block or zero-fills past EOF, and the full-page write path
	// overwrites all of it), and the baton scheduler admits one goroutine,
	// so reuse cannot leak stale bytes between calls.
	scratch []byte
}

// NewFS formats a filesystem over a fresh disk with the given capacity.
func NewFS(world *sim.World, diskPages uint64) *FS {
	fs := &FS{
		world:    world,
		disk:     mach.NewDisk(world, diskPages),
		inodes:   make(map[Ino]*inode),
		nextIno:  1,
		freeBlk:  freeList{hi: diskPages},
		cache:    make(map[uint64][]byte),
		cacheCap: 128,
		scratch:  make([]byte, mach.PageSize),
	}
	root := &inode{ino: 1, typ: TypeDir, children: make(map[string]Ino), nlink: 1}
	fs.inodes[1] = root
	fs.nextIno = 2
	return fs
}

// Disk exposes the filesystem's block device (read-only use: adversarial
// tests and the E13 leak scan sweep it for plaintext residue).
func (fs *FS) Disk() *mach.Disk { return fs.disk }

func (fs *FS) allocBlock() (uint64, Errno) {
	b, ok := fs.freeBlk.alloc()
	if !ok {
		return 0, ENOSPC
	}
	return b, OK
}

// freeBlock returns b to the free list and drops it from the block cache,
// FIFO position included: a stale key would let the cache outgrow cacheCap
// and evict a re-allocated block at its old position.
func (fs *FS) freeBlock(b uint64) {
	if _, ok := fs.cache[b]; ok {
		delete(fs.cache, b)
		for i, k := range fs.cacheKeys {
			if k == b {
				fs.cacheKeys = append(fs.cacheKeys[:i], fs.cacheKeys[i+1:]...)
				break
			}
		}
	}
	fs.freeBlk.free(b)
}

// --- Path resolution --------------------------------------------------------

func splitPath(path string) []string {
	var out []string
	for _, part := range strings.Split(path, "/") {
		if part != "" && part != "." {
			out = append(out, part)
		}
	}
	return out
}

// lookup resolves a path to an inode.
func (fs *FS) lookup(path string) (*inode, Errno) {
	cur := fs.inodes[1]
	for _, part := range splitPath(path) {
		if cur.typ != TypeDir {
			return nil, ENOTDIR
		}
		ci, ok := cur.children[part]
		if !ok {
			return nil, ENOENT
		}
		cur = fs.inodes[ci]
	}
	return cur, OK
}

// lookupParent resolves the directory containing the path's final element.
func (fs *FS) lookupParent(path string) (*inode, string, Errno) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", EINVAL
	}
	dirParts, name := parts[:len(parts)-1], parts[len(parts)-1]
	cur := fs.inodes[1]
	for _, part := range dirParts {
		if cur.typ != TypeDir {
			return nil, "", ENOTDIR
		}
		ci, ok := cur.children[part]
		if !ok {
			return nil, "", ENOENT
		}
		cur = fs.inodes[ci]
	}
	if cur.typ != TypeDir {
		return nil, "", ENOTDIR
	}
	return cur, name, OK
}

// --- Namespace operations -----------------------------------------------------

// Create makes a new regular file (truncating an existing one when trunc).
func (fs *FS) Create(path string, trunc bool) (Ino, Errno) {
	dir, name, err := fs.lookupParent(path)
	if err != OK {
		return 0, err
	}
	if existing, ok := dir.children[name]; ok {
		ino := fs.inodes[existing]
		if ino.typ == TypeDir {
			return 0, EISDIR
		}
		if trunc {
			fs.truncate(ino, 0)
		}
		return existing, OK
	}
	ino := &inode{ino: fs.nextIno, typ: TypeFile, nlink: 1}
	fs.nextIno++
	fs.inodes[ino.ino] = ino
	dir.children[name] = ino.ino
	return ino.ino, OK
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string) Errno {
	dir, name, err := fs.lookupParent(path)
	if err != OK {
		return err
	}
	if _, ok := dir.children[name]; ok {
		return EEXIST
	}
	ino := &inode{ino: fs.nextIno, typ: TypeDir, children: make(map[string]Ino), nlink: 1}
	fs.nextIno++
	fs.inodes[ino.ino] = ino
	dir.children[name] = ino.ino
	return OK
}

// Unlink removes a file (directories must be empty).
func (fs *FS) Unlink(path string) Errno {
	dir, name, err := fs.lookupParent(path)
	if err != OK {
		return err
	}
	ci, ok := dir.children[name]
	if !ok {
		return ENOENT
	}
	ino := fs.inodes[ci]
	if ino.typ == TypeDir && len(ino.children) > 0 {
		return ENOTSUP
	}
	delete(dir.children, name)
	ino.nlink--
	if ino.nlink == 0 {
		fs.truncate(ino, 0)
		delete(fs.inodes, ci)
	}
	return OK
}

// Stat reports file metadata.
func (fs *FS) Stat(path string) (StatInfo, Errno) {
	ino, err := fs.lookup(path)
	if err != OK {
		return StatInfo{}, err
	}
	return fs.statInode(ino), OK
}

// StatIno reports metadata by inode number.
func (fs *FS) StatIno(i Ino) (StatInfo, Errno) {
	ino, ok := fs.inodes[i]
	if !ok {
		return StatInfo{}, ENOENT
	}
	return fs.statInode(ino), OK
}

func (fs *FS) statInode(ino *inode) StatInfo {
	return StatInfo{Ino: ino.ino, Type: ino.typ, Size: ino.size,
		Pages: uint64(len(ino.blocks))}
}

// ReadDir lists a directory's entries sorted by name.
func (fs *FS) ReadDir(path string) ([]string, Errno) {
	ino, err := fs.lookup(path)
	if err != OK {
		return nil, err
	}
	if ino.typ != TypeDir {
		return nil, ENOTDIR
	}
	names := make([]string, 0, len(ino.children))
	for n := range ino.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, OK
}

// --- Data operations ----------------------------------------------------------

func (fs *FS) blockRead(blk uint64, dst []byte) Errno {
	if b, ok := fs.cache[blk]; ok {
		copy(dst, b)
		fs.world.CPU().ChargeAdd(fs.world.Cost.MemAccess*sim.Cycles(mach.PageSize/64), sim.CtrMemAccess, mach.PageSize/64)
		return OK
	}
	if err := fs.disk.Read(blk, dst); err != nil {
		return EIO
	}
	fs.cacheInsert(blk, dst)
	return OK
}

func (fs *FS) blockWrite(blk uint64, src []byte) Errno {
	if err := fs.disk.Write(blk, src); err != nil {
		return EIO
	}
	fs.cacheInsert(blk, src)
	return OK
}

func (fs *FS) cacheInsert(blk uint64, data []byte) {
	// Updating a resident block reuses its buffer; inserting at capacity
	// recycles the evicted victim's. Only a cold insert below capacity
	// allocates, so the cache stops allocating once warm.
	b, ok := fs.cache[blk]
	if !ok {
		if len(fs.cache) >= fs.cacheCap {
			victim := fs.cacheKeys[0]
			fs.cacheKeys = fs.cacheKeys[1:]
			b = fs.cache[victim]
			delete(fs.cache, victim)
		}
		fs.cacheKeys = append(fs.cacheKeys, blk)
	}
	if b == nil {
		b = make([]byte, mach.PageSize)
	}
	copy(b, data)
	fs.cache[blk] = b
}

// ensurePage makes sure the file has a block for page idx, growing as
// needed. Newly attached blocks are zeroed: the allocator recycles blocks
// from deleted files, and holes must never expose stale contents.
func (fs *FS) ensurePage(ino *inode, idx uint64) (uint64, Errno) {
	var zero [mach.PageSize]byte
	for uint64(len(ino.blocks)) <= idx {
		b, err := fs.allocBlock()
		if err != OK {
			return 0, err
		}
		if err := fs.blockWrite(b, zero[:]); err != OK {
			fs.freeBlock(b)
			return 0, err
		}
		ino.blocks = append(ino.blocks, b)
	}
	return ino.blocks[idx], OK
}

// ReadFilePage reads one whole page of a file into dst (zero-filled past
// EOF).
func (fs *FS) ReadFilePage(i Ino, idx uint64, dst []byte) Errno {
	ino, ok := fs.inodes[i]
	if !ok {
		return ENOENT
	}
	if idx >= uint64(len(ino.blocks)) {
		for j := range dst {
			dst[j] = 0
		}
		return OK
	}
	return fs.blockRead(ino.blocks[idx], dst)
}

// WriteFilePage writes one whole page, growing the file.
func (fs *FS) WriteFilePage(i Ino, idx uint64, src []byte) Errno {
	ino, ok := fs.inodes[i]
	if !ok {
		return ENOENT
	}
	blk, err := fs.ensurePage(ino, idx)
	if err != OK {
		return err
	}
	if end := (idx + 1) * mach.PageSize; end > ino.size {
		ino.size = end
	}
	return fs.blockWrite(blk, src)
}

// ReadAt implements byte-granularity reads, returning the count read
// (0 at EOF).
func (fs *FS) ReadAt(i Ino, off uint64, dst []byte) (int, Errno) {
	ino, ok := fs.inodes[i]
	if !ok {
		return 0, ENOENT
	}
	if ino.typ == TypeDir {
		return 0, EISDIR
	}
	if off >= ino.size {
		return 0, OK
	}
	n := len(dst)
	if rem := ino.size - off; uint64(n) > rem {
		n = int(rem)
	}
	done := 0
	page := fs.scratch
	for done < n {
		idx := (off + uint64(done)) / mach.PageSize
		pgOff := int((off + uint64(done)) % mach.PageSize)
		chunk := mach.PageSize - pgOff
		if chunk > n-done {
			chunk = n - done
		}
		if err := fs.ReadFilePage(i, idx, page); err != OK {
			return done, err
		}
		copy(dst[done:done+chunk], page[pgOff:pgOff+chunk])
		done += chunk
	}
	return n, OK
}

// WriteAt implements byte-granularity writes with read-modify-write of
// partial pages.
func (fs *FS) WriteAt(i Ino, off uint64, src []byte) (int, Errno) {
	ino, ok := fs.inodes[i]
	if !ok {
		return 0, ENOENT
	}
	if ino.typ == TypeDir {
		return 0, EISDIR
	}
	done := 0
	page := fs.scratch
	for done < len(src) {
		idx := (off + uint64(done)) / mach.PageSize
		pgOff := int((off + uint64(done)) % mach.PageSize)
		chunk := mach.PageSize - pgOff
		if chunk > len(src)-done {
			chunk = len(src) - done
		}
		if pgOff != 0 || chunk != mach.PageSize {
			if err := fs.ReadFilePage(i, idx, page); err != OK {
				return done, err
			}
		}
		copy(page[pgOff:pgOff+chunk], src[done:done+chunk])
		blk, err := fs.ensurePage(ino, idx)
		if err != OK {
			return done, err
		}
		if err := fs.blockWrite(blk, page); err != OK {
			return done, err
		}
		done += chunk
	}
	if end := off + uint64(len(src)); end > ino.size {
		ino.size = end
	}
	return done, OK
}

// truncate resizes a file downward (only shrink-to-zero and grow are used).
func (fs *FS) truncate(ino *inode, size uint64) {
	if size == 0 {
		for _, b := range ino.blocks {
			fs.freeBlock(b)
		}
		ino.blocks = nil
		ino.size = 0
		return
	}
	ino.size = size
}

// Truncate resizes a file by path.
func (fs *FS) Truncate(path string, size uint64) Errno {
	ino, err := fs.lookup(path)
	if err != OK {
		return err
	}
	if ino.typ != TypeFile {
		return EISDIR
	}
	fs.truncate(ino, size)
	return OK
}

// WriteFile is a host-side convenience to populate the filesystem before
// the guest runs (workload inputs, web content).
func (fs *FS) WriteFile(path string, data []byte) Errno {
	i, err := fs.Create(path, true)
	if err != OK {
		return err
	}
	_, err = fs.WriteAt(i, 0, data)
	return err
}

// ReadFile is the host-side read counterpart (tests, verification).
func (fs *FS) ReadFile(path string) ([]byte, Errno) {
	ino, err := fs.lookup(path)
	if err != OK {
		return nil, err
	}
	out := make([]byte, ino.size)
	_, err = fs.ReadAt(ino.ino, 0, out)
	return out, err
}
