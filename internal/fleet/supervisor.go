package fleet

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// SupervisorOptions configures the shard supervisor.
type SupervisorOptions struct {
	// Bin is the liteserve binary to spawn.
	Bin string
	// Dir is the fleet state directory; shard i gets Dir/shard<i>/ for its
	// WAL and snapshot.
	Dir string
	// Shards is how many liteserve processes to run (min 1). Shard 0 is
	// the trainer: it gets the WAL, the snapshot file and the live
	// adaptive-update loop; the rest run as followers.
	Shards int
	// ModelPath is the shared boot model every shard loads (trained once
	// by the caller), so shards come up in milliseconds instead of each
	// re-training at boot.
	ModelPath string
	// UpdateBatch, NoValidation and ValidationCases configure the
	// trainer's adaptive-update loop (liteserve defaults when zero).
	UpdateBatch     int
	NoValidation    bool
	ValidationCases int
	// Seed is forwarded to every shard.
	Seed int64

	// Logf is the supervisor's event log (default stdout — the parseable
	// `litefleet: shard id=... pid=... addr=...` lines land here).
	Logf func(format string, args ...any)
}

func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stdout, format+"\n", args...)
		}
	}
	return o
}

const (
	// spawnTimeout bounds the wait for a shard's "listening addr=" line; it
	// covers a cold shard that falls back to boot-training.
	spawnTimeout = 3 * time.Minute
	// restartBackoffMin/Max bound the exponential restart backoff after a
	// shard process dies.
	restartBackoffMin = 500 * time.Millisecond
	restartBackoffMax = 15 * time.Second
)

// Supervisor spawns N liteserve shard processes on ephemeral ports,
// registers each with the router once its bound address is known, marks a
// shard down the moment its process exits, and restarts it with
// exponential backoff — the router re-admits it when it is listening
// again. TrainerID / TrainerSnapshot report the designated trainer shard
// for the router's feedback routing and flip coordination.
type Supervisor struct {
	opts   SupervisorOptions
	router *Router

	mu   sync.Mutex
	cmds map[int]*exec.Cmd

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewSupervisor builds a supervisor that feeds shard membership into rt.
func NewSupervisor(rt *Router, opts SupervisorOptions) *Supervisor {
	return &Supervisor{
		opts:   opts.withDefaults(),
		router: rt,
		cmds:   map[int]*exec.Cmd{},
		stopCh: make(chan struct{}),
	}
}

// TrainerID returns the designated trainer shard's id ("shard0").
func (s *Supervisor) TrainerID() string { return shardID(0) }

// TrainerSnapshot returns the path the trainer persists each validated
// generation to — the file the flip coordinator points followers at.
func (s *Supervisor) TrainerSnapshot() string {
	return filepath.Join(s.opts.Dir, shardID(0), "snapshot.json")
}

func shardID(i int) string { return fmt.Sprintf("shard%d", i) }

// Start launches every shard's run loop.
func (s *Supervisor) Start() {
	for i := 0; i < s.opts.Shards; i++ {
		s.wg.Add(1)
		go s.runShard(i)
	}
}

// Stop SIGTERMs every live shard, waits up to grace for clean exits, then
// SIGKILLs the stragglers and waits for the run loops.
func (s *Supervisor) Stop(grace time.Duration) {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.signalAll(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	s.signalAll(syscall.SIGKILL)
	<-done
}

func (s *Supervisor) signalAll(sig os.Signal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cmd := range s.cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Signal(sig)
		}
	}
}

// runShard keeps one shard alive: spawn, register with the router, wait
// for the process to die, deregister, back off, respawn. The backoff
// resets once a shard has stayed up long enough to be considered healthy.
func (s *Supervisor) runShard(i int) {
	defer s.wg.Done()
	id := shardID(i)
	failures := 0
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		started := time.Now()
		addr, cmd, err := s.spawn(i)
		if err != nil {
			s.opts.Logf("litefleet: shard id=%s spawn failed: %v", id, err)
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		} else {
			s.setCmd(i, cmd)
			role := "follower"
			if i == 0 {
				role = "trainer"
			}
			s.opts.Logf("litefleet: shard id=%s pid=%d addr=%s role=%s", id, cmd.Process.Pid, addr, role)
			s.router.AddShard(id, "http://"+addr)
			werr := cmd.Wait()
			s.setCmd(i, nil)
			s.router.MarkDown(id, fmt.Sprintf("process exited: %v", werr))
			s.router.Metrics().Counter(fmt.Sprintf("lite_fleet_shard_restarts_total{shard=%q}", id)).Inc()
			select {
			case <-s.stopCh:
				return
			default:
			}
			s.opts.Logf("litefleet: shard id=%s exited (%v after %v); restarting", id, werr, time.Since(started).Round(time.Millisecond))
		}
		if time.Since(started) > 30*time.Second {
			failures = 0 // it ran for a while: treat the next death as fresh
		}
		failures++
		backoff := restartBackoffMin << (failures - 1)
		if backoff > restartBackoffMax || backoff <= 0 {
			backoff = restartBackoffMax
		}
		select {
		case <-s.stopCh:
			return
		case <-time.After(backoff):
		}
	}
}

func (s *Supervisor) setCmd(i int, cmd *exec.Cmd) {
	s.mu.Lock()
	s.cmds[i] = cmd
	s.mu.Unlock()
}

// shardArgs builds shard i's liteserve command line: every shard serves
// the shared boot model on an ephemeral port; the trainer additionally
// gets durable state (WAL + snapshot) and the update loop, while
// followers run with -follower (no local retraining, /admin/flip open).
func (s *Supervisor) shardArgs(i int) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-model", s.opts.ModelPath,
	}
	if s.opts.Seed != 0 {
		args = append(args, "-seed", fmt.Sprint(s.opts.Seed))
	}
	if i == 0 {
		dir := filepath.Join(s.opts.Dir, shardID(0))
		args = append(args,
			"-admin",
			"-snapshot", filepath.Join(dir, "snapshot.json"),
			"-wal-dir", filepath.Join(dir, "wal"),
		)
		if s.opts.UpdateBatch > 0 {
			args = append(args, "-update-batch", fmt.Sprint(s.opts.UpdateBatch))
		}
		if s.opts.NoValidation {
			args = append(args, "-no-validation")
		} else if s.opts.ValidationCases > 0 {
			args = append(args, "-validation-cases", fmt.Sprint(s.opts.ValidationCases))
		}
		return args
	}
	return append(args, "-follower")
}

// spawn starts shard i and returns its bound address, parsed from the
// `listening addr=HOST:PORT` line liteserve prints — ephemeral ports with
// no race: the kernel assigns the port, the child reports it.
func (s *Supervisor) spawn(i int) (string, *exec.Cmd, error) {
	id := shardID(i)
	if i == 0 {
		if err := os.MkdirAll(filepath.Join(s.opts.Dir, id, "wal"), 0o755); err != nil {
			return "", nil, err
		}
	}
	cmd := exec.Command(s.opts.Bin, s.shardArgs(i)...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return "", nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return "", nil, err
	}
	pw.Close() // the child holds the write end now; EOF on pr == child exit

	addrCh := make(chan string, 1)
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "liteserve: listening addr="); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
			s.opts.Logf("[%s] %s", id, line)
		}
	}()

	select {
	case addr := <-addrCh:
		return addr, cmd, nil
	case <-eof:
		return "", cmd, fmt.Errorf("shard %s exited before reporting its address", id)
	case <-s.stopCh:
		return "", cmd, fmt.Errorf("supervisor stopping")
	case <-time.After(spawnTimeout):
		return "", cmd, fmt.Errorf("shard %s did not report an address within %v", id, spawnTimeout)
	}
}
