// Package discovery implements recruitment-side asset discovery and
// characterization (paper §III.A): active probing, passive traffic
// fingerprinting, and side-channel emission detection, combined into a
// continuously maintained directory of discovered assets with estimated
// class, affiliation, and confidence.
//
// The paper's premise is that cyber-discovery alone is insufficient for
// battlefield assets: "they may be intermittently connected, so may not
// consistently respond to probes"; discovery must fuse passive evidence
// and "side channel emanations" to find gray/red nodes. The experiments
// (E3) quantify exactly that gap.
package discovery

import (
	"time"

	"iobt/internal/asset"
	"iobt/internal/sim"
	"iobt/internal/trust"
)

// Methods is a bit set of discovery techniques to enable.
type Methods uint8

// Discovery techniques.
const (
	// MethodProbe actively solicits responses from cooperative nodes.
	MethodProbe Methods = 1 << iota
	// MethodPassive overhears traffic and fingerprints device classes.
	MethodPassive
	// MethodSideChannel detects RF emissions of silent nodes.
	MethodSideChannel

	// MethodsAll enables every technique.
	MethodsAll = MethodProbe | MethodPassive | MethodSideChannel
)

// Config parameterizes the discovery service.
type Config struct {
	// Scanners are the blue assets performing discovery.
	Scanners []asset.ID
	// ExpireAfter drops directory entries not re-seen for this long;
	// zero disables expiry.
	ExpireAfter time.Duration
	// Methods selects the enabled techniques; zero defaults to MethodsAll.
	Methods Methods
}

const (
	scanInterval = 2 * time.Second
	// grayRespondProb and redRespondProb are the ground-truth behavior
	// of non-blue nodes answering standard probes (commodity devices
	// answer sometimes; adversaries stay silent).
	grayRespondProb = 0.4
	redRespondProb  = 0.02
)

// DefaultConfig returns the configuration used by the experiments,
// leaving Scanners to be filled in.
func DefaultConfig() Config {
	return Config{
		ExpireAfter: 2 * time.Minute,
		Methods:     MethodsAll,
	}
}

// Record is one discovered asset.
type Record struct {
	ID        asset.ID
	FirstSeen time.Duration
	LastSeen  time.Duration

	// Probes counts probe opportunities; Responses counts answers.
	Probes    int
	Responses int
	// Overheard counts passive observations; EmissionEst is an EWMA of
	// observed emission amplitude.
	Overheard   int
	EmissionEst float64

	// EstClass is the fingerprinted device class (may be wrong early).
	EstClass asset.Class
	// EstAffiliation is the estimated control status.
	EstAffiliation asset.Affiliation
	// ClassKnown reports whether EstClass came from a cooperative
	// response (authoritative) rather than fingerprinting.
	ClassKnown bool
}

// respRate returns the observed response rate over probe opportunities.
func (r *Record) respRate() float64 {
	if r.Probes == 0 {
		return 0
	}
	return float64(r.Responses) / float64(r.Probes)
}

// Service runs continuous discovery over a population.
type Service struct {
	eng    *sim.Engine
	pop    *asset.Population
	cfg    Config
	rng    *sim.RNG
	ledger *trust.Ledger

	dir    map[asset.ID]*Record
	ticker *sim.Ticker
	near   []asset.ID // Scan's candidate scratch

	// Rounds counts completed scan rounds.
	Rounds sim.Counter
}

// New returns an unstarted discovery service. ledger may be nil.
func New(eng *sim.Engine, pop *asset.Population, ledger *trust.Ledger, cfg Config) *Service {
	if cfg.Methods == 0 {
		cfg.Methods = MethodsAll
	}
	return &Service{
		eng:    eng,
		pop:    pop,
		cfg:    cfg,
		rng:    eng.Stream("discovery"),
		ledger: ledger,
		dir:    make(map[asset.ID]*Record),
	}
}

// Start begins periodic scanning.
func (s *Service) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = s.eng.Every(scanInterval, "discovery.scan", s.Scan)
}

// Stop halts scanning.
func (s *Service) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Scan performs one synchronous discovery round across all scanners.
func (s *Service) Scan() {
	now := s.eng.Now()
	for _, sc := range s.cfg.Scanners {
		scanner := s.pop.Get(sc)
		if scanner == nil || !scanner.Alive() || !scanner.Online {
			continue
		}
		s.near = s.pop.Near(s.near[:0], scanner.Pos(), scanner.Caps.RadioRange)
		for _, id := range s.near {
			if id == sc {
				continue
			}
			s.observe(s.pop.Get(id), now)
		}
	}
	s.expire(now)
	s.Rounds.Inc()
}

// observe applies every enabled technique to one in-range candidate.
// A directory record is created only when some technique yields actual
// evidence — silence under probe-only discovery leaves a node invisible,
// which is precisely the gap the paper identifies.
func (s *Service) observe(a *asset.Asset, now time.Duration) {
	if a == nil || !a.Alive() {
		return
	}
	probed := s.cfg.Methods&MethodProbe != 0
	responded := probed && s.responds(a)

	awake := a.DutyCycle <= 0 || s.rng.Bool(a.DutyCycle)
	overheardPassive := s.cfg.Methods&MethodPassive != 0 && awake &&
		s.rng.Bool(0.3+0.5*a.Emission)

	emissionObs := 0.0
	heardSideChannel := false
	if s.cfg.Methods&MethodSideChannel != 0 && awake {
		// RF emissions leak even from silent radios; measured with noise.
		emissionObs = a.Emission + s.rng.Norm(0, 0.05)
		heardSideChannel = emissionObs > 0.15 // detector floor
	}

	rec := s.dir[a.ID]
	if rec == nil {
		if !responded && !overheardPassive && !heardSideChannel {
			return // no evidence: the node stays undiscovered
		}
		rec = s.record(a.ID, now)
	}

	if probed {
		rec.Probes++
	}
	if responded {
		rec.Responses++
		rec.LastSeen = now
		// Cooperative responses carry an authoritative descriptor —
		// unless the node is compromised and lying about its class.
		if a.Compromised && s.rng.Bool(0.5) {
			rec.EstClass = asset.ClassSensor // forged identity
		} else {
			rec.EstClass = a.Class
		}
		rec.ClassKnown = true
	}
	if overheardPassive {
		rec.Overheard++
		rec.LastSeen = now
		if !rec.ClassKnown {
			// Fingerprinting: accuracy grows with observations.
			pCorrect := 1 - 1/float64(rec.Overheard+1)
			if s.rng.Bool(pCorrect) {
				rec.EstClass = a.Class
			} else {
				rec.EstClass = asset.ClassPhone // commonest confusion
			}
		}
	}
	if heardSideChannel {
		if rec.EmissionEst == 0 {
			rec.EmissionEst = emissionObs
		} else {
			rec.EmissionEst = 0.8*rec.EmissionEst + 0.2*emissionObs
		}
		rec.Overheard++
		rec.LastSeen = now
	}

	s.classify(rec, a)
}

// responds models the ground-truth probe-response behavior.
func (s *Service) responds(a *asset.Asset) bool {
	if a.DutyCycle < 1 && !s.rng.Bool(a.DutyCycle) {
		return false // asleep: intermittent connectivity
	}
	switch {
	case a.Compromised:
		// Captured nodes keep answering to stay hidden.
		return true
	case a.Affiliation == asset.Blue:
		return true
	case a.Affiliation == asset.Gray:
		return s.rng.Bool(grayRespondProb)
	default:
		return s.rng.Bool(redRespondProb)
	}
}

// classify estimates affiliation from the evidence mix and updates the
// trust ledger for flagged nodes.
func (s *Service) classify(rec *Record, a *asset.Asset) {
	prev := rec.EstAffiliation
	rate := rec.respRate()
	switch {
	case rec.Probes >= 3 && rate >= 0.6:
		rec.EstAffiliation = asset.Blue
	case rec.Probes >= 5 && rate >= 0.08:
		rec.EstAffiliation = asset.Gray
	case rec.Probes >= 5 && rec.Overheard >= 3:
		// Silent but emitting: adversarial.
		rec.EstAffiliation = asset.Red
	default:
		// Not enough evidence yet; keep previous estimate.
		rec.EstAffiliation = prev
	}
	if s.ledger != nil && rec.EstAffiliation != prev && rec.EstAffiliation != 0 {
		s.ledger.Observe(a.ID, trust.EvDiscovery, rec.EstAffiliation == asset.Blue)
	}
}

func (s *Service) record(id asset.ID, now time.Duration) *Record {
	rec, ok := s.dir[id]
	if !ok {
		rec = &Record{ID: id, FirstSeen: now, LastSeen: now}
		s.dir[id] = rec
	}
	return rec
}

func (s *Service) expire(now time.Duration) {
	if s.cfg.ExpireAfter <= 0 {
		return
	}
	for id, rec := range s.dir {
		if now-rec.LastSeen > s.cfg.ExpireAfter {
			delete(s.dir, id)
		}
	}
}

// Stats quantifies directory quality against ground truth.
type Stats struct {
	// Recall is the fraction of alive assets present in the directory.
	Recall float64
	// ClassAccuracy is the fraction of directory entries whose EstClass
	// matches ground truth.
	ClassAccuracy float64
	// RedPrecision and RedRecall score identification of red (including
	// compromised) nodes.
	RedPrecision float64
	RedRecall    float64
}

// Evaluate compares the directory with the population's ground truth.
func (s *Service) Evaluate() Stats {
	var alive, found, classOK, entries int
	var redTrue, redFlagged, redHit int
	for _, a := range s.pop.All() {
		if !a.Alive() {
			continue
		}
		isScanner := false
		for _, sc := range s.cfg.Scanners {
			if sc == a.ID {
				isScanner = true
				break
			}
		}
		if isScanner {
			continue
		}
		alive++
		truthRed := a.Affiliation == asset.Red || a.Compromised
		if truthRed {
			redTrue++
		}
		rec := s.dir[a.ID]
		if rec == nil {
			continue
		}
		found++
		entries++
		if rec.EstClass == a.Class {
			classOK++
		}
		if rec.EstAffiliation == asset.Red {
			redFlagged++
			if truthRed {
				redHit++
			}
		}
	}
	st := Stats{}
	if alive > 0 {
		st.Recall = float64(found) / float64(alive)
	}
	if entries > 0 {
		st.ClassAccuracy = float64(classOK) / float64(entries)
	}
	if redFlagged > 0 {
		st.RedPrecision = float64(redHit) / float64(redFlagged)
	}
	if redTrue > 0 {
		st.RedRecall = float64(redHit) / float64(redTrue)
	}
	return st
}
