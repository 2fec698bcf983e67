package sim

import (
	"time"
)

// Server is a single FIFO queueing server with a bounded queue, the building
// block for device and link models. Jobs carry a deterministic service time;
// when the queue (including the job in service) is full, Submit rejects the
// job, which models tail drop.
//
// Busy time is accounted so callers can read measured utilization, and a
// high-water mark records the deepest queue observed.
type Server struct {
	eng *Engine

	// QueueCapacity bounds waiting jobs plus the one in service; 0 means
	// unbounded.
	QueueCapacity int

	queue    []job
	busy     bool
	busyTime time.Duration
	lastIdle time.Duration
	accepted uint64
	rejected uint64
}

type job struct {
	service time.Duration
	done    func(start, end time.Duration)
}

// NewServer attaches a server to an engine with the given queue capacity.
func NewServer(eng *Engine, queueCapacity int) *Server {
	return &Server{eng: eng, QueueCapacity: queueCapacity}
}

// Submit enqueues a job requiring the given service time. done (optional) is
// invoked at completion with the service start and end times. Submit reports
// whether the job was accepted; rejected jobs are counted as drops.
func (s *Server) Submit(service time.Duration, done func(start, end time.Duration)) bool {
	if service < 0 {
		service = 0
	}
	inSystem := len(s.queue)
	if s.busy {
		inSystem++
	}
	if s.QueueCapacity > 0 && inSystem >= s.QueueCapacity {
		s.rejected++
		return false
	}
	s.accepted++
	s.queue = append(s.queue, job{service: service, done: done})
	if !s.busy {
		s.startNext()
	}
	return true
}

func (s *Server) startNext() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	s.busy = true
	start := s.eng.Now()
	s.eng.After(j.service, func() {
		end := s.eng.Now()
		s.busyTime += end - start
		if j.done != nil {
			j.done(start, end)
		}
		s.startNext()
	})
}

// Accepted returns how many jobs were admitted.
func (s *Server) Accepted() uint64 { return s.accepted }

// Rejected returns how many jobs were tail-dropped.
func (s *Server) Rejected() uint64 { return s.rejected }

// BusyTime returns cumulative time the server spent serving completed jobs.
func (s *Server) BusyTime() time.Duration { return s.busyTime }

// Utilization returns busy time as a fraction of the elapsed interval.
func (s *Server) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busyTime) / float64(elapsed)
}
