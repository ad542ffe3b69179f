// Semantic fixture: a Gauge whose add/watermark are CAS loops on one
// shared atomic<double>, an unrelated class that also has add(), and a
// telemetry struct reached through `auto&` (field-name fallback).
#ifndef TELE_H
#define TELE_H
#include <atomic>
class Gauge {
  public:
    void set(double v) { v_.store(v); }
    void add(double d) {
        double cur = v_.load();
        while (!v_.compare_exchange_weak(cur, cur + d)) {
        }
    }
    void watermark(double v) {
        double cur = v_.load();
        while (cur < v && !v_.compare_exchange_weak(cur, v)) {
        }
    }
  private:
    std::atomic<double> v_{0.0};
};
class Table {
  public:
    void add(int k) { last_ = k; }
    int last_ = 0;
};
struct KernelTelemetry {
    Gauge& probes;
    Gauge& peak;
    static KernelTelemetry& get();
};
#endif
