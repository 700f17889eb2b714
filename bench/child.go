package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Env owns everything a benchmark invocation leaves behind: the built
// server binary, the scratch directory the data dirs live in, and the
// running children. Close stops the children and removes the scratch
// directory; main calls it on success, failure and SIGINT alike.
type Env struct {
	Root      string // repository root (the directory holding cmd/teleios-server)
	OutDir    string // bench/out: result files and traces
	BuildDir  string // where the server binary is built
	ServerBin string
	tmp       string

	mu       sync.Mutex
	children []*Server
	closed   bool
}

// NewEnv prepares the output and scratch directories under root.
func NewEnv(root string) (*Env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "teleios-server", "main.go")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	e := &Env{
		Root:     root,
		OutDir:   filepath.Join(root, "bench", "out"),
		BuildDir: filepath.Join(root, ".bench_build"),
	}
	for _, d := range []string{e.OutDir, e.BuildDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.tmp, err = os.MkdirTemp(e.OutDir, "tmp-"); err != nil {
		return nil, err
	}
	return e, nil
}

// Close kills every child still running and removes the scratch
// directory. It is safe to call more than once and from a signal
// handler goroutine.
func (e *Env) Close() {
	e.mu.Lock()
	children := e.children
	e.children, e.closed = nil, true
	e.mu.Unlock()
	for _, s := range children {
		s.Kill()
	}
	os.RemoveAll(e.tmp)
}

// TempDir creates a fresh directory under the scratch directory.
func (e *Env) TempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix+"-")
}

// BuildServer compiles cmd/teleios-server from the repository's sources.
func (e *Env) BuildServer() error {
	e.ServerBin = filepath.Join(e.BuildDir, "teleios-server")
	cmd := exec.Command("go", "build", "-o", e.ServerBin, "./cmd/teleios-server")
	cmd.Dir = e.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building teleios-server: %v\n%s", err, out)
	}
	return nil
}

// ServerFlags are the flags every child server runs with, besides
// -addr and -data-dir: the defaults, with the flush policy pinned
// (fsync before every ack) and a checkpoint period short enough that a
// write run sees several cycles.
func ServerFlags(checkpointEvery time.Duration) []string {
	return []string{"-wal-sync", "always", "-checkpoint-every", checkpointEvery.String()}
}

// Server is one teleios-server child process.
type Server struct {
	URL string
	Dir string

	env  *Env
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once cmd.Wait has returned
	err  error         // cmd.Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// StartServer boots the server over dataDir and returns once /health
// answers 200.
func (e *Env) StartServer(dataDir string, flags []string) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.CreateTemp(e.tmp, "server-*.log")
	if err != nil {
		return nil, err
	}
	s := &Server{URL: "http://" + addr, Dir: dataDir, env: e, log: logf, done: make(chan struct{})}
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, flags...)
	s.cmd = exec.Command(e.ServerBin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		logf.Close()
		return nil, errors.New("benchmark is shutting down")
	}
	if err := s.cmd.Start(); err != nil {
		e.mu.Unlock()
		logf.Close()
		return nil, err
	}
	e.children = append(e.children, s)
	e.mu.Unlock()
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.URL + "/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("teleios-server exited during start-up: %v\n%s", s.err, s.LogTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Kill()
			return nil, fmt.Errorf("teleios-server not healthy after 60s\n%s", s.LogTail())
		}
	}
}

// LogTail returns the end of the child's combined output.
func (s *Server) LogTail() string {
	b, err := os.ReadFile(s.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// PeakRSSMiB reads the child's resident-set high-water mark (VmHWM).
func (s *Server) PeakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/<pid>/status")
}

// procCPUSeconds parses utime+stime (fields 14 and 15) of /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("malformed /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc/<pid>/stat times")
	}
	const clockTicksPerSecond = 100 // USER_HZ on every Linux port Go supports
	return (ut + st) / clockTicksPerSecond, nil
}

// Stop shuts the server down gracefully (SIGTERM: drain, final packed
// checkpoint) and waits for it to exit.
func (s *Server) Stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.Kill()
		return fmt.Errorf("teleios-server ignored SIGTERM for 60s\n%s", s.LogTail())
	}
	s.forget()
	if s.err != nil {
		return fmt.Errorf("teleios-server exited uncleanly: %v\n%s", s.err, s.LogTail())
	}
	return nil
}

// Kill sends SIGKILL and waits for the process to be gone.
func (s *Server) Kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.forget()
}

func (s *Server) forget() {
	s.log.Close()
	e := s.env
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, c := range e.children {
		if c == s {
			e.children = append(e.children[:i], e.children[i+1:]...)
			return
		}
	}
}

// ServerStats is the part of the server's /stats the benchmark reads.
type ServerStats struct {
	Store struct {
		Triples int    `json:"triples"`
		Version uint64 `json:"version"`
	} `json:"store"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Pool struct {
		Rejected uint64 `json:"rejected"`
		TimedOut uint64 `json:"timed_out"`
	} `json:"pool"`
	Admission struct {
		Shed        uint64 `json:"shed"`
		RateLimited uint64 `json:"rate_limited"`
	} `json:"admission"`
	Persistence struct {
		WALBytes             int64  `json:"wal_bytes"`
		WALSeq               uint64 `json:"wal_seq"`
		LastCheckpointUnixMs int64  `json:"last_checkpoint_unix_ms"`
		LastCheckpointMs     int64  `json:"last_checkpoint_ms"`
		RecoveryMs           int64  `json:"recovery_ms"`
		ReplayedRecords      uint64 `json:"replayed_records"`
		StoreMode            string `json:"store_mode"`
		ResidentBytes        int64  `json:"resident_bytes"`
		GroupBatches         uint64 `json:"group_batches"`
		GroupRecords         uint64 `json:"group_records"`
		GroupFsyncs          uint64 `json:"group_fsyncs"`
	} `json:"persistence"`
}

// Rejected sums every way the server refuses a request it could parse.
func (st *ServerStats) Rejected() uint64 {
	return st.Pool.Rejected + st.Pool.TimedOut + st.Admission.Shed + st.Admission.RateLimited
}

// Stats fetches /stats.
func (s *Server) Stats() (*ServerStats, error) {
	resp, err := http.Get(s.URL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// CopyDir copies the regular files of src (a flat data directory) into
// a new directory dst.
func CopyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// DirBytes sums the sizes of the regular files under dir.
func DirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
