package guestos

// Sysno numbers the guest system calls.
type Sysno uint64

// System call numbers. The set mirrors the slice of POSIX the paper's
// microbenchmarks exercise (lmbench-style) plus what the workloads need.
const (
	SysExit Sysno = iota + 1
	SysGetPid
	SysGetPPid
	SysYield
	SysNanoSleep
	SysTime
	SysFork
	SysExec
	SysWaitPid
	SysKill
	SysSignal // install a handler
	SysSigReturn

	SysBrk
	SysMmap
	SysMunmap
	SysMsync

	SysOpen
	SysClose
	SysRead
	SysWrite
	SysPread
	SysPwrite
	SysLseek
	SysStat
	SysFstat
	SysUnlink
	SysMkdir
	SysDup
	SysPipe
	SysFsync
	SysTruncate
	SysGetDirEntries

	SysThreadCreate
	SysThreadJoin
	SysThreadExit

	SysShmAttach

	SysNull // does nothing; the lmbench "null syscall"
)

var sysnoNames = [...]string{
	SysExit: "exit", SysGetPid: "getpid", SysGetPPid: "getppid",
	SysYield: "yield", SysNanoSleep: "nanosleep", SysTime: "time",
	SysFork: "fork", SysExec: "exec", SysWaitPid: "waitpid",
	SysKill: "kill", SysSignal: "signal", SysSigReturn: "sigreturn",
	SysBrk: "brk", SysMmap: "mmap", SysMunmap: "munmap", SysMsync: "msync",
	SysOpen: "open", SysClose: "close", SysRead: "read", SysWrite: "write",
	SysPread: "pread", SysPwrite: "pwrite", SysLseek: "lseek",
	SysStat: "stat", SysFstat: "fstat", SysUnlink: "unlink",
	SysMkdir: "mkdir", SysDup: "dup", SysPipe: "pipe", SysFsync: "fsync",
	SysTruncate: "truncate", SysGetDirEntries: "getdirentries",
	SysThreadCreate: "thread_create", SysThreadJoin: "thread_join",
	SysThreadExit: "thread_exit", SysShmAttach: "shm_attach",
	SysNull: "null",
}

// String implements fmt.Stringer.
func (s Sysno) String() string {
	if s < Sysno(len(sysnoNames)) && sysnoNames[s] != "" {
		return sysnoNames[s]
	}
	return "sys?"
}

// Open flags.
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// AccessAllowed reports whether a descriptor opened with flags may be
// written (write) or read: O_WRONLY forbids reads, and only O_WRONLY or
// O_RDWR allow writes.
func AccessAllowed(flags int, write bool) bool {
	if write {
		return flags&(OWrOnly|ORdWr) != 0
	}
	return flags&OWrOnly == 0
}

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Signal numbers.
type Signal int

// Signals.
const (
	SIGKILL Signal = 9
	SIGUSR1 Signal = 10
	SIGUSR2 Signal = 12
	SIGTERM Signal = 15
)
