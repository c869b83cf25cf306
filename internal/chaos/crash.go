package chaos

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Crash-injection primitives: faults that model a process death or a
// write cut short by one. The durability layer's recovery tests drive
// these — truncating a file's tail reproduces a write the crash cut
// short byte-for-byte, and Proc lets an e2e kill a real serving process
// with SIGKILL (no handlers, no drains, no goodbyes) and assert what the
// restart recovers.

// TruncateTail cuts the last n bytes off the file at path, simulating a
// torn write: a record that was partially flushed when the process (or
// the machine) died. n larger than the file truncates to empty.
func TruncateTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// CorruptFileAt flips one byte at the given offset, a targeted variant
// of CorruptFile for tests that must corrupt a specific record.
func CorruptFileAt(path string, offset int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if offset < 0 || offset >= int64(len(b)) {
		return fmt.Errorf("chaos: offset %d out of range for %s (%d bytes)", offset, path, len(b))
	}
	b[offset] ^= 0xFF
	return os.WriteFile(path, b, 0o644)
}

// Proc is a child process under chaos control: started normally, killed
// abruptly. The kill-9 harness for crash-recovery e2e tests — SIGKILL
// gives the victim no chance to flush, drain, or checkpoint, which is
// exactly the contract a design that writes its state before answering
// must survive.
type Proc struct {
	Cmd *exec.Cmd

	// mu serializes reaping: exec.Cmd.Wait may be called once, but
	// tests reach it from Kill9, Wait, and WaitExit's goroutine.
	mu      sync.Mutex
	waited  bool
	waitErr error
}

// StartProc launches name with args, inheriting stdout/stderr, and
// returns the handle the test kills or waits through.
func StartProc(name string, args ...string) (*Proc, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", name, err)
	}
	return &Proc{Cmd: cmd}, nil
}

// Kill9 delivers SIGKILL and reaps the child. The process gets no
// signal handler, no deferred function, no final fsync — anything it
// wanted durable had better already be on disk.
func (p *Proc) Kill9() error {
	if err := p.Cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("chaos: kill -9: %w", err)
	}
	p.Wait()
	return nil
}

// Signal forwards sig to the child (e.g. SIGTERM for the graceful half
// of a crash-vs-drain comparison).
func (p *Proc) Signal(sig os.Signal) error {
	return p.Cmd.Process.Signal(sig)
}

// Wait reaps the child if nothing has already, returning the exit
// error (nil on clean exit). Idempotent and safe to race.
func (p *Proc) Wait() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.waited {
		p.waitErr = p.Cmd.Wait()
		p.waited = true
	}
	return p.waitErr
}

// Alive reports whether the child is still running (signal 0 probe).
func (p *Proc) Alive() bool {
	p.mu.Lock()
	waited := p.waited
	p.mu.Unlock()
	if waited {
		return false
	}
	return p.Cmd.Process.Signal(syscall.Signal(0)) == nil
}

// WaitExit polls until the child has exited or timeout elapses,
// reporting whether it exited. For children expected to die on their
// own (e.g. after their server socket vanishes).
func (p *Proc) WaitExit(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}
