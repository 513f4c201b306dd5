package guestos

// FileDesc is an open-file description; fd table slots point at (possibly
// shared) FileDesc values, POSIX-style.
type FileDesc struct {
	ino      Ino
	pos      uint64
	flags    int
	refs     int
	pipe     *Pipe
	writeEnd bool // for pipe descriptors
}

// Pipe is a classic bounded byte pipe. buf[head:] holds the bytes in
// flight: reads consume them by advancing head, and push reclaims the
// consumed prefix in place, so the backing array grows only to the bytes in
// flight and a drained pipe is refilled without a host allocation.
type Pipe struct {
	buf       []byte
	head      int
	capacity  int
	readers   int
	writers   int
	waitRead  []*Proc
	waitWrite []*Proc
}

const pipeCapacity = 16 * 1024

// pending is the number of bytes in flight.
func (pp *Pipe) pending() int { return len(pp.buf) - pp.head }

// push appends b to the bytes in flight. When b does not fit the backing
// array and the consumed prefix is at least as long as the bytes in flight,
// those bytes move to the front first, so each move is paid for by a byte
// consumed since the last one; otherwise append grows the array.
func (pp *Pipe) push(b []byte) {
	if len(pp.buf)+len(b) > cap(pp.buf) && pp.head >= pp.pending() {
		pp.buf = pp.buf[:copy(pp.buf, pp.buf[pp.head:])]
		pp.head = 0
	}
	pp.buf = append(pp.buf, b...)
}

// pop moves the first len(dst) bytes in flight into dst.
func (pp *Pipe) pop(dst []byte) {
	pp.head += copy(dst, pp.buf[pp.head:])
	if pp.head == len(pp.buf) {
		pp.buf, pp.head = pp.buf[:0], 0
	}
}

func (pp *Pipe) addRef(writeEnd bool) {
	if writeEnd {
		pp.writers++
	} else {
		pp.readers++
	}
}

// allocFD finds the lowest free descriptor slot.
func (p *Proc) allocFD() (int, Errno) {
	for i, f := range p.fds {
		if f == nil {
			return i, OK
		}
	}
	return 0, EMFILE
}

func (p *Proc) fd(n int) (*FileDesc, Errno) {
	if n < 0 || n >= len(p.fds) || p.fds[n] == nil {
		return nil, EBADF
	}
	return p.fds[n], OK
}

// --- Kernel file operations ------------------------------------------------

func (k *Kernel) openFD(p *Proc, path string, flags int) (int, Errno) {
	var ino Ino
	if flags&OCreate != 0 {
		i, err := k.fs.Create(path, flags&OTrunc != 0)
		if err != OK {
			return 0, err
		}
		ino = i
	} else {
		n, err := k.fs.lookup(path)
		if err != OK {
			return 0, err
		}
		if n.typ == TypeDir && flags&(OWrOnly|ORdWr) != 0 {
			return 0, EISDIR
		}
		if flags&OTrunc != 0 {
			k.fs.truncate(n, 0)
		}
		ino = n.ino
	}
	fd, err := p.allocFD()
	if err != OK {
		return 0, err
	}
	p.fds[fd] = &FileDesc{ino: ino, flags: flags, refs: 1}
	return fd, OK
}

func (k *Kernel) closeFD(p *Proc, fd int) Errno {
	f, err := p.fd(fd)
	if err != OK {
		return err
	}
	p.fds[fd] = nil
	f.refs--
	if f.pipe != nil {
		pp := f.pipe
		if f.writeEnd {
			pp.writers--
			if pp.writers == 0 {
				pp.waitRead = k.wakeAll(pp.waitRead)
			}
		} else {
			pp.readers--
			if pp.readers == 0 {
				pp.waitWrite = k.wakeAll(pp.waitWrite)
			}
		}
	}
	return OK
}

func (k *Kernel) dupFD(p *Proc, fd int) (int, Errno) {
	f, err := p.fd(fd)
	if err != OK {
		return 0, err
	}
	nfd, err := p.allocFD()
	if err != OK {
		return 0, err
	}
	f.refs++
	if f.pipe != nil {
		f.pipe.addRef(f.writeEnd)
	}
	p.fds[nfd] = f
	return nfd, OK
}

func (k *Kernel) makePipe(p *Proc) (int, int, Errno) {
	rfd, err := p.allocFD()
	if err != OK {
		return 0, 0, err
	}
	// Temporarily occupy so allocFD finds the next slot.
	p.fds[rfd] = &FileDesc{}
	wfd, err := p.allocFD()
	if err != OK {
		p.fds[rfd] = nil
		return 0, 0, err
	}
	pp := &Pipe{capacity: pipeCapacity, readers: 1, writers: 1}
	p.fds[rfd] = &FileDesc{pipe: pp, refs: 1}
	p.fds[wfd] = &FileDesc{pipe: pp, writeEnd: true, refs: 1}
	return rfd, wfd, OK
}

// readFD reads up to n bytes into a kernel buffer sized by what the file or
// pipe delivers. pos, when not nil, is pread's file position, which the read
// advances in place of the descriptor's; a pipe has none (ESPIPE).
func (k *Kernel) readFD(p *Proc, fd int, n uint64, pos *uint64) ([]byte, Errno) {
	f, err := p.fd(fd)
	if err != OK {
		return nil, err
	}
	if f.pipe != nil {
		if pos != nil {
			return nil, ESPIPE
		}
		if f.writeEnd {
			return nil, EBADF
		}
		return k.pipeRead(p, f.pipe, n)
	}
	if !AccessAllowed(f.flags, false) {
		return nil, EBADF
	}
	if pos == nil {
		pos = &f.pos
	}
	buf, e := k.fs.readN(p, f.ino, *pos, n)
	if e != OK {
		return nil, e
	}
	*pos += uint64(len(buf))
	return buf, OK
}

// writeFD writes the kernel buffer buf. pos, when not nil, is pwrite's file
// position, which the write advances in place of the descriptor's (O_APPEND
// moves only the descriptor's writes to the end); a pipe has none (ESPIPE).
func (k *Kernel) writeFD(p *Proc, fd int, buf []byte, pos *uint64) (int, Errno) {
	f, err := p.fd(fd)
	if err != OK {
		return 0, err
	}
	if f.pipe != nil {
		if pos != nil {
			return 0, ESPIPE
		}
		if !f.writeEnd {
			return 0, EBADF
		}
		return k.pipeWrite(p, f.pipe, buf)
	}
	if !AccessAllowed(f.flags, true) {
		return 0, EBADF
	}
	at := f.pos
	if pos != nil {
		at = *pos
	} else if f.flags&OAppend != 0 {
		st, e := k.fs.StatIno(f.ino)
		if e != OK {
			return 0, e
		}
		at = st.Size
	}
	n, e := k.fs.WriteAt(f.ino, at, buf)
	if e != OK {
		return n, e
	}
	if pos == nil {
		pos = &f.pos
	}
	*pos = at + uint64(n)
	return n, OK
}

func (k *Kernel) lseekFD(p *Proc, fd int, off int64, whence int) (uint64, Errno) {
	f, err := p.fd(fd)
	if err != OK {
		return 0, err
	}
	if f.pipe != nil {
		return 0, ESPIPE
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = int64(f.pos)
	case SeekEnd:
		st, e := k.fs.StatIno(f.ino)
		if e != OK {
			return 0, e
		}
		base = int64(st.Size)
	default:
		return 0, EINVAL
	}
	np := base + off
	if np < 0 {
		return 0, EINVAL
	}
	f.pos = uint64(np)
	return f.pos, OK
}

// --- Pipe data path ----------------------------------------------------------

// wakeAll wakes every task on a pipe's wait list and returns the list
// emptied, keeping its backing array for the next waiter.
func (k *Kernel) wakeAll(waiters []*Proc) []*Proc {
	for _, w := range waiters {
		k.wake(w)
	}
	clear(waiters)
	return waiters[:0]
}

func (k *Kernel) pipeRead(p *Proc, pp *Pipe, n uint64) ([]byte, Errno) {
	for pp.pending() == 0 {
		if pp.writers == 0 {
			return nil, OK // EOF
		}
		pp.waitRead = append(pp.waitRead, p)
		k.block(p, "pipe-read")
	}
	buf := p.ioBuf(min(n, uint64(pp.pending())))
	pp.pop(buf)
	pp.waitWrite = k.wakeAll(pp.waitWrite)
	return buf, OK
}

func (k *Kernel) pipeWrite(p *Proc, pp *Pipe, buf []byte) (int, Errno) {
	written := 0
	for written < len(buf) {
		if pp.readers == 0 {
			if written > 0 {
				return written, OK
			}
			return 0, EPIPE
		}
		space := pp.capacity - pp.pending()
		if space == 0 {
			pp.waitWrite = append(pp.waitWrite, p)
			k.block(p, "pipe-write")
			continue
		}
		n := space
		if n > len(buf)-written {
			n = len(buf) - written
		}
		pp.push(buf[written : written+n])
		written += n
		pp.waitRead = k.wakeAll(pp.waitRead)
	}
	return written, OK
}
