/*
 * sampleprof: a SIGPROF stack sampler to LD_PRELOAD into any probemon
 * binary, for hosts without perf.
 *
 *   LD_PRELOAD=build/tools/sampleprof.so build/bench/bench_rt_scale ...
 *   python3 tools/sampleprof/report.py sampleprof.<pid>.txt
 *
 * The library's constructor arms ITIMER_PROF, so SIGPROF arrives after
 * every interval of CPU time the process consumes, on the thread that
 * consumed it. The handler records the thread id and a backtrace() of
 * the interrupted stack into a preallocated buffer; it takes no lock and
 * allocates nothing (backtrace() is called once in the constructor, so
 * libgcc's unwinder is loaded before the first signal). At exit the
 * destructor writes every sample plus a copy of /proc/self/maps to
 * sampleprof.<pid>.txt in the working directory; report.py symbolizes
 * and attributes them.
 *
 * CPU itimers tick at the kernel's HZ whatever interval is asked for,
 * so a busy thread yields about HZ samples per CPU-second: run for a
 * minute to get a per-layer split worth reading. The sampler interrupts
 * the program hundreds of times a second and turns blocking waits into
 * EINTR returns; never time a performance claim under it.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

enum { kMaxFrames = 48, kMaxSamples = 1 << 17 };

struct sample {
  int tid;
  int depth; /* written last; 0 = slot not (fully) written */
  void* frames[kMaxFrames];
};

static struct sample* samples;
static unsigned next_sample;
static unsigned dropped;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  (void)context;
  const int saved_errno = errno;
  const unsigned i = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
  if (i < kMaxSamples) {
    struct sample* s = &samples[i];
    s->tid = (int)syscall(SYS_gettid);
    const int depth = backtrace(s->frames, kMaxFrames);
    __atomic_store_n(&s->depth, depth, __ATOMIC_RELEASE);
  } else {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void sampleprof_start(void) {
  void* prime[4];
  backtrace(prime, 4); /* load the unwinder outside the handler */
  samples = mmap(NULL, sizeof(struct sample) * kMaxSamples,
                 PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  /* 1 ms asked; the kernel delivers at its tick rate. */
  const struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampleprof_finish(void) {
  if (!samples) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "sampleprof.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (!out) return;
  unsigned n = __atomic_load_n(&next_sample, __ATOMIC_RELAXED);
  if (n > kMaxSamples) n = kMaxSamples;
  fprintf(out, "# sampleprof v1 pid %d samples %u dropped %u\n",
          (int)getpid(), n, __atomic_load_n(&dropped, __ATOMIC_RELAXED));
  fputs("# maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps) {
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "m %s", line);
    fclose(maps);
  }
  fputs("# samples: s <tid> <innermost frame> ... <outermost frame>\n", out);
  for (unsigned i = 0; i < n; ++i) {
    const struct sample* s = &samples[i];
    const int depth = __atomic_load_n(&s->depth, __ATOMIC_ACQUIRE);
    if (depth <= 0) continue;
    fprintf(out, "s %d", s->tid);
    for (int f = 0; f < depth; ++f) fprintf(out, " %p", s->frames[f]);
    fputc('\n', out);
  }
  fclose(out);
  fprintf(stderr, "sampleprof: %u samples written to %s\n", n, path);
}
