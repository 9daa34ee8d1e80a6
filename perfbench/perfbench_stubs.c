/* Process accounting the OCaml Unix library does not expose: the
   rusage of one reaped child (wait4), a monotonic clock and the thread
   CPU clock. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* now_ns : unit -> int, CLOCK_MONOTONIC in nanoseconds */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* cpu_ns : unit -> int, this thread's CPU time in nanoseconds (time the
   host took the virtual CPU away is not counted) */
value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* wait4 : int -> int * int * int * int
   (exit code or 128+signal, user µs, system µs, peak RSS KiB) */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1,
              Val_long((long)ru.ru_utime.tv_sec * 1000000L + ru.ru_utime.tv_usec));
  Store_field(res, 2,
              Val_long((long)ru.ru_stime.tv_sec * 1000000L + ru.ru_stime.tv_usec));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
