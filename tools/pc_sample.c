/* PC sampler: an LD_PRELOAD library that interrupts the process every
 * PC_SAMPLE_PERIOD_US microseconds (0.5 ms) of wall time and records the
 * program counter it interrupted. tools/pc_profile.py resolves the samples
 * to repository files and functions.
 *
 * A CLOCK_MONOTONIC POSIX timer delivers SIGPROF; the handler stores the
 * interrupted PC from its ucontext in a fixed buffer (no allocation, no
 * locks). At exit the library writes the executable mappings of the
 * process (from /proc/self/maps) and one line per distinct PC with its
 * count. The timer signals the process, not a thread, so profile
 * single-threaded programs (perfbench runs single-threaded).
 *
 * Build and run (x86-64 or AArch64 Linux):
 *
 *   cc -O2 -shared -fPIC -o pc_sample.so tools/pc_sample.c -lrt
 *   PC_SAMPLE_OUT=samples.txt LD_PRELOAD=$PWD/pc_sample.so \
 *       ./perfbench --workload admission-churn --seed 1
 *   python3 tools/pc_profile.py samples.txt
 *
 * Output format (text, one record per line):
 *   # pc_sample period_us=<n> samples=<n> dropped=<n>
 *   map <start hex> <end hex> <file offset hex> <path>
 *   pc <address hex> <count>
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>

#define PC_SAMPLE_PERIOD_US 500
#define PC_SAMPLE_CAPACITY (1u << 21) /* ~17 min at 0.5 ms */

static uintptr_t samples[PC_SAMPLE_CAPACITY];
static volatile sig_atomic_t sample_count;
static volatile sig_atomic_t dropped;
static timer_t timer;
static int armed;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sample.c supports x86-64 and AArch64 Linux"
#endif
  if (sample_count < (sig_atomic_t)PC_SAMPLE_CAPACITY)
    samples[sample_count++] = pc;
  else
    ++dropped;
}

__attribute__((constructor)) static void pc_sample_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    perror("pc_sample: sigaction");
    return;
  }
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) {
    perror("pc_sample: timer_create");
    return;
  }
  struct itimerspec spec;
  memset(&spec, 0, sizeof spec);
  spec.it_interval.tv_nsec = PC_SAMPLE_PERIOD_US * 1000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, NULL) != 0) {
    perror("pc_sample: timer_settime");
    timer_delete(timer);
    return;
  }
  armed = 1;
}

static int by_address(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a;
  const uintptr_t y = *(const uintptr_t*)b;
  return (x > y) - (x < y);
}

__attribute__((destructor)) static void pc_sample_stop(void) {
  if (!armed) return;
  timer_delete(timer);
  armed = 0;
  signal(SIGPROF, SIG_IGN);

  const char* path = getenv("PC_SAMPLE_OUT");
  if (path == NULL || *path == '\0') path = "pc_samples.txt";
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("pc_sample: cannot open PC_SAMPLE_OUT");
    return;
  }
  const size_t n = (size_t)sample_count;
  fprintf(out, "# pc_sample period_us=%d samples=%zu dropped=%ld\n",
          PC_SAMPLE_PERIOD_US, n, (long)dropped);

  /* Named executable mappings, so the profiler can turn a PC into an
   * address inside its ELF file ([vdso] and the like keep their names). */
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) {
      unsigned long start, end, offset;
      char perms[8];
      int path_at = 0;
      if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
                 &offset, &path_at) < 4 ||
          perms[2] != 'x' || path_at == 0 || line[path_at] == '\n' ||
          line[path_at] == '\0')
        continue;
      line[strcspn(line, "\n")] = '\0';
      fprintf(out, "map %lx %lx %lx %s\n", start, end, offset,
              line + path_at);
    }
    fclose(maps);
  }

  qsort(samples, n, sizeof samples[0], by_address);
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && samples[j] == samples[i]) ++j;
    fprintf(out, "pc %lx %zu\n", (unsigned long)samples[i], j - i);
    i = j;
  }
  fclose(out);
}
