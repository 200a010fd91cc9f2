package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// buildServer compiles cmd/ansmet-serve from the checkout at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ansmet-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ansmet-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ansmet-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running ansmet-serve child.
type server struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{} // closed once Wait returned
}

// readyDeadline bounds the wait for the first /v1/ready 200.
const readyDeadline = 60 * time.Second

// startServer launches `ansmet-serve -db snapshot` on a free loopback port
// and returns once /v1/ready answers 200. It fails fast when the child
// exits first. The journal of a live snapshot is attached by the server
// itself (passing -wal as well exits with "journal is already attached").
func startServer(bin, snapshot, logPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-db", snapshot)
	// Two Ps although the server inherits one CPU (pinToOneCPU): with one,
	// the search connection's next request is there before its goroutine
	// parks, the P never idles, and a request on a second connection — the
	// mixed workload's writer — waits for sysmon's network poll every 10 ms.
	// Write acks read 8.7 ms at the median that way and 2.2 ms this way;
	// the search floors are the same either way.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The child must not outlive the benchmark, whatever kills the latter.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ansmet-serve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), readyDeadline)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/ready", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.log.Close()
			return nil, fmt.Errorf("ansmet-serve exited before becoming ready:\n%s", tail(logPath))
		case <-ctx.Done():
			s.kill()
			return nil, fmt.Errorf("ansmet-serve not ready within %v:\n%s", readyDeadline, tail(logPath))
		case <-tick.C:
		}
	}
}

// kill SIGKILLs the child and waits until it has ended. Safe to call twice.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
}

// cpuTime is the CPU time the child's threads have run so far, read from
// the process's CPU-time clock (clock_getcpuclockid(3)'s id for the pid):
// one system call, nanosecond resolution, so it can be read after every
// response. /proc/<pid>/stat counts the same time in 10 ms ticks.
func (s *server) cpuTime() (time.Duration, error) {
	const cpuclockSched = 2
	clock := ^int32(s.cmd.Process.Pid)<<3 | cpuclockSched
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading the server's CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// pinToOneCPU restricts every thread of this process, and so every child it
// starts from here on, to the highest-numbered CPU it may run on, and
// returns that CPU. The machine this runs on hands its two cores back and
// forth with its neighbours: two busy threads run anywhere between full and
// half speed for minutes at a time, one busy thread does not (README.md,
// "Load shape"). With generator and server taking turns on one core the
// numbers no longer depend on how many cores the host spares.
func pinToOneCPU() (int, error) {
	var mask [128]byte
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/8]&(1<<(i%8)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [128]byte{}
	mask[cpu/8] = 1 << (cpu % 8)
	// A thread started while the list is read inherits the mask of the
	// thread that started it; the second pass catches one started by a
	// thread the first had not reached yet.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
			if errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity: %w", errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}

// peakRSSMB is the child's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}
