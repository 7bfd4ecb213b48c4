/* Pin the benchmark to one CPU (see README.md, "One CPU"). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Restrict the calling thread, and every domain and process it starts
   afterwards, to the last CPU it may run on.  Returns that CPU, or -1
   when the affinity cannot be read or set. */
value perfbench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int last = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(last);
}
