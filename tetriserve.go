// Package tetriserve is a from-scratch Go reproduction of "TetriServe:
// Efficiently Serving Mixed DiT Workloads" (ASPLOS 2026): a deadline-aware
// round-based scheduler for Diffusion Transformer serving with step-level
// sequence parallelism, evaluated end to end on a calibrated discrete-event
// GPU-cluster simulator and exposed as an online HTTP serving daemon.
//
// This package is the public facade: it re-exports the pieces a downstream
// user composes, in dependency order:
//
//	model     — DiT descriptors (FLUX.1-dev, SD3-Medium): tokens, FLOPs, latents
//	simgpu    — cluster topologies (8xH100 NVLink, 4xA40 NVLink-pairs+PCIe)
//	costmodel — analytical step-latency estimator + offline-profiled lookup table
//	workload  — arrival processes, resolution mixes, SLO policies, prompt corpus
//	sched     — scheduler contract + baselines (xDiT fixed SP, RSSP, EDF, exact solver)
//	core      — the paper's contribution: TetriServe's round-based DP scheduler
//	engine    — execution engine: step blocks, latent handoff, VAE decode, HBM
//	sim       — discrete-event serving simulator
//	metrics   — SAR, latency CDFs, degree timelines, utilization
//	cache     — Nirvana-style approximate latent cache
//	server    — real-time serving driver + HTTP API
//
// The quickest way in:
//
//	mdl  := tetriserve.FLUX()
//	topo := tetriserve.H100x8()
//	prof := tetriserve.Profile(mdl, topo)
//	sched := tetriserve.NewScheduler(prof, topo, tetriserve.DefaultSchedulerConfig())
//	result, err := tetriserve.Simulate(tetriserve.SimConfig{
//		Model: mdl, Topo: topo, Scheduler: sched,
//		Requests: tetriserve.GenerateWorkload(tetriserve.WorkloadConfig{Model: mdl}),
//	})
//	fmt.Println(tetriserve.SAR(result))
//
// See examples/ for runnable programs and internal/experiments for the
// reproduction of every table and figure in the paper.
package tetriserve

import (
	"net/http"

	"tetriserve/internal/cache"
	"tetriserve/internal/core"
	"tetriserve/internal/costmodel"
	"tetriserve/internal/metrics"
	"tetriserve/internal/model"
	"tetriserve/internal/sched"
	"tetriserve/internal/server"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// Model and hardware descriptors.
type (
	// Model describes a DiT model (see internal/model).
	Model = model.Model
	// Resolution is an output image size.
	Resolution = model.Resolution
	// Topology is a GPU node description (see internal/simgpu).
	Topology = simgpu.Topology
	// GPUMask is a set of GPUs within a node.
	GPUMask = simgpu.Mask
)

// Cost model.
type (
	// CostEstimator predicts per-step latency analytically.
	CostEstimator = costmodel.Estimator
	// CostProfile is the offline-profiled lookup table schedulers consult.
	CostProfile = costmodel.Profile
)

// Workload.
type (
	// Request is one image-generation request.
	Request = workload.Request
	// RequestID identifies a request.
	RequestID = workload.RequestID
	// WorkloadConfig parameterizes trace generation.
	WorkloadConfig = workload.GeneratorConfig
	// SLOPolicy maps resolutions to deadlines.
	SLOPolicy = workload.SLOPolicy
	// Prompt is a synthetic text prompt.
	Prompt = workload.Prompt
)

// Scheduling.
type (
	// Scheduler is the policy contract shared by TetriServe and baselines.
	Scheduler = sched.Scheduler
	// Assignment directs the engine to run steps on a GPU group.
	Assignment = sched.Assignment
	// SchedulerConfig selects TetriServe's mechanisms.
	SchedulerConfig = core.Config
	// TetriServeScheduler is the paper's round-based DP scheduler.
	TetriServeScheduler = core.Scheduler
)

// Simulation and serving.
type (
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// SimResult aggregates a run's outcomes.
	SimResult = sim.Result
	// Outcome is the fate of one request.
	Outcome = sim.Outcome
	// Cache is the Nirvana-style approximate latent cache.
	Cache = cache.Cache
	// ServerConfig configures the real-time serving driver.
	ServerConfig = server.DriverConfig
	// Server is the real-time serving driver.
	Server = server.Driver
)

// Standard resolutions from the paper's evaluation.
var (
	Res256  = model.Res256
	Res512  = model.Res512
	Res1024 = model.Res1024
	Res2048 = model.Res2048
)

// FLUX returns the FLUX.1-dev model descriptor (Table 1 calibration).
func FLUX() *Model { return model.FLUX() }

// SD3 returns the Stable Diffusion 3 Medium descriptor.
func SD3() *Model { return model.SD3() }

// H100x8 returns the paper's 8xH100 NVLink testbed.
func H100x8() *Topology { return simgpu.H100x8() }

// A40x4 returns the paper's 4xA40 NVLink-pairs/PCIe testbed.
func A40x4() *Topology { return simgpu.A40x4() }

// Profile offline-profiles a model on a topology into the lookup table
// TetriServe schedules against (§4.2.1).
func Profile(m *Model, t *Topology) *CostProfile {
	return costmodel.BuildProfile(costmodel.NewEstimator(m, t), costmodel.ProfilerConfig{})
}

// DefaultSchedulerConfig returns the paper's default mechanism set: 5-step
// granularity rounds, placement preservation, elastic scale-up, selective
// batching, best-effort lane, eager admission, quantization-aware allocation,
// step cache off. These switches are the whole configuration: the round cap,
// per-round overhead, late-lane GPU cap and batching caps are constants of
// internal/core.
func DefaultSchedulerConfig() SchedulerConfig { return core.DefaultConfig() }

// NewScheduler builds TetriServe's deadline-aware round-based scheduler.
func NewScheduler(prof *CostProfile, topo *Topology, cfg SchedulerConfig) *TetriServeScheduler {
	return core.NewScheduler(prof, topo, cfg)
}

// NewFixedSP returns the xDiT fixed-degree baseline.
func NewFixedSP(degree int) Scheduler { return sched.NewFixedSP(degree) }

// NewRSSP returns the Resolution-Specific SP baseline.
func NewRSSP(maxDegree int) Scheduler { return sched.NewRSSP(maxDegree) }

// GenerateWorkload materializes a request trace (Poisson arrivals, Uniform
// mix, paper SLOs by default).
func GenerateWorkload(cfg WorkloadConfig) []*Request { return workload.Generate(cfg) }

// UniformMix draws the four standard resolutions equally.
func UniformMix() workload.Mix { return workload.UniformMix() }

// SkewedMix biases toward larger resolutions (α per §6.1).
func SkewedMix(alpha float64) workload.Mix { return workload.SkewedMix(alpha) }

// NewSLOPolicy returns the paper's per-resolution deadlines at a scale.
func NewSLOPolicy(scale float64) SLOPolicy { return workload.NewSLOPolicy(scale) }

// Simulate runs a serving simulation to completion.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SAR computes the SLO attainment ratio of a result.
func SAR(res *SimResult) float64 { return metrics.SAR(res) }

// SARByResolution computes per-resolution SAR (the spider plots).
func SARByResolution(res *SimResult) map[Resolution]float64 {
	return metrics.SARByResolution(res)
}

// MeanLatency returns mean completed latency in seconds.
func MeanLatency(res *SimResult) float64 { return metrics.MeanLatency(res) }

// NewCache returns a Nirvana-style approximate latent cache with the
// paper's defaults (10k entries, k ∈ {5..25} of 50 steps).
func NewCache() *Cache { return cache.New(cache.DefaultConfig()) }

// NewServer builds the real-time serving driver (call Start, then Submit,
// or wrap with NewServerHandler for HTTP).
func NewServer(cfg ServerConfig) (*Server, error) { return server.NewDriver(cfg) }

// NewServerHandler wraps a driver with the HTTP API
// (POST /v1/images/generations, GET /v1/jobs/{id}, GET /v1/stats).
func NewServerHandler(d *Server) http.Handler {
	return server.NewAPI(d).Handler()
}
